"""Fast-path orchestration: plan, time, apply, assemble.

:func:`fast_replay` is the two-pass replacement for ``Host.replay``'s
schedule-arrivals-and-drain loop, and :func:`fast_replay_closed_loop`
the one for ``Host.replay_closed_loop``'s submit-and-drain loop.  Both
are thin entries over one body -- the planner, the timing pass, the
apply step and the result assembly -- and differ only in where arrivals
come from.  :func:`fallback_reasons`
is the dispatch decision both ``Host`` entries consult: it checks the
``REPRO_REPLAY_FASTPATH`` switch and the preconditions, and names why
the event kernel must run instead (nothing, for the fast path).
"""

from __future__ import annotations

import os
from typing import Tuple

import numpy as np

from repro.trace import Op, Request, Trace
from repro.trace.columns import FLAG_HAS_FINISH, FLAG_HAS_SERVICE, TraceColumns

from .planner import plan_trace
from .preconditions import REPLAY_FASTPATH_ENV, decide
from .timing import compute_timing


class FastPathUnavailable(RuntimeError):
    """``REPRO_REPLAY_FASTPATH=require`` but the replay is ineligible."""


#: Timed requests are built from the columns via ``__new__`` plus six
#: ``__dict__`` item stores (a keyword ``update`` would build a dict per
#: request): equal objects to the ``Request`` constructor's, minus the
#: ``__post_init__`` revalidation -- the addresses come from validated
#: requests and the timestamps are the timing pass's own
#: ``dispatch >= arrival`` / ``finish >= dispatch`` invariants.
_NEW_REQUEST = Request.__new__


def fallback_reasons(device, trace=None, first_arrival_us=None) -> Tuple[str, ...]:
    """Why this replay must run on the event kernel; empty for the fast path.

    Consults ``$REPRO_REPLAY_FASTPATH`` (``auto``/``off``/``require``;
    see :data:`~repro.replay.preconditions.REPLAY_FASTPATH_ENV`) -- ``off``
    is itself the reason -- then
    :func:`~repro.replay.preconditions.decide`, and raises
    :class:`FastPathUnavailable` under ``require`` when ineligible.  A
    fallback happens *before* the planner touches the FTL, so it leaves
    the device pristine for the event kernel.
    """
    mode = os.environ.get(REPLAY_FASTPATH_ENV, "").strip().lower() or "auto"
    if mode == "off":
        return (f"{REPLAY_FASTPATH_ENV}=off",)
    if mode not in ("auto", "require"):
        raise ValueError(
            f"unknown {REPLAY_FASTPATH_ENV}={mode!r}: "
            "expected auto, off, or require"
        )
    reasons = decide(device, trace, first_arrival_us=first_arrival_us)
    if reasons and mode == "require":
        raise FastPathUnavailable(
            f"{REPLAY_FASTPATH_ENV}={mode} but the fast path is "
            "ineligible: " + "; ".join(reasons)
        )
    return reasons


def fast_replay(device, trace: Trace):
    """Replay ``trace`` on ``device`` via the two-pass engine.

    Callers must have checked :func:`repro.replay.preconditions.decide`
    first; this function assumes eligibility.  On return the device --
    stats, FTL, timing state (admission queue, power state, resource
    frontiers), fault streams, kernel clock and re-armed timers -- is in
    the state a kernel replay would have left, except for the kernel's
    event-counter telemetry (``processed``/``scheduled``/``cancellations``/
    seq numbers), which count events that deliberately never existed --
    the ``FAULT_RETRY`` events of read retries among them.
    """
    columns = trace.columns()
    return _replay(device, trace, columns, columns.arrival_us)


def fast_replay_closed_loop(device, lba, size, ops, gaps_us, synchronous, name):
    """Closed-loop replay via the two-pass engine.

    ``lba``/``size`` are int64 columns and ``ops`` the :class:`Op` of
    each request; ``gaps_us``/``synchronous`` pace requests ``1 .. n-1``
    (see :meth:`repro.sim.Host.replay_closed_loop`).  The planner never
    looks at arrivals, and the timing pass computes each one from the
    previous completion, so this is :func:`fast_replay` with the arrival
    column coming out of the timing pass instead of going in.  The end
    state is the one the kernel path leaves after its final ``drain()``.
    """
    count = len(ops)
    write = Op.WRITE
    # The planner reads only lba/size/op; arrivals do not exist yet.
    unknown = np.full(count, np.nan)
    stream = TraceColumns(
        unknown, unknown, unknown, lba, size,
        np.array([op is write for op in ops], dtype=np.uint8),
        np.zeros(count, dtype=np.uint8),
    )
    return _replay(device, Trace(name, []), stream, None, gaps_us, synchronous)


def _replay(device, template: Trace, stream, arrival_us, gaps_us=None, synchronous=None):
    """Plan, time, apply and assemble: the one body of both entries.

    ``stream`` holds the requests' lba/size/op columns; ``arrival_us``
    and the pacing arguments go to the timing pass.  The result trace is
    ``template`` holding the timed requests, built from the columns.
    """
    from repro.emmc.device import ReplayResult  # local: avoids cycle

    if not len(stream):
        # Kernel parity: drain() fires nothing, nothing changes.
        return ReplayResult(
            trace=template.with_requests([]),
            stats=device.stats,
            config_name=device.config.name,
            engine="fast",
        )
    plan = plan_trace(device, stream)
    outcome = compute_timing(device, plan, arrival_us, gaps_us, synchronous)
    arrival_arr = np.array(outcome.arrival_us, dtype=np.float64)
    dispatch_arr, finish_arr = _apply(device, outcome, arrival_arr)

    completed = []
    append = completed.append
    new = _NEW_REQUEST
    read, write = Op.READ, Op.WRITE
    for arrival, lba, size, op, dispatch, finish in zip(
        outcome.arrival_us,
        stream.lba.tolist(),
        stream.size.tolist(),
        stream.op.tolist(),
        outcome.dispatch_us,
        outcome.finish_us,
    ):
        timed = new(Request)
        fields = timed.__dict__
        fields["arrival_us"] = arrival
        fields["lba"] = lba
        fields["size"] = size
        fields["op"] = write if op else read
        fields["service_start_us"] = dispatch
        fields["finish_us"] = finish
        append(timed)
    result_trace = template.with_requests(completed)
    flags = np.full(len(stream), FLAG_HAS_SERVICE | FLAG_HAS_FINISH, dtype=np.uint8)
    result_trace._adopt_columns(
        TraceColumns(
            arrival_arr, dispatch_arr, finish_arr, stream.lba, stream.size, stream.op, flags
        )
    )
    return ReplayResult(
        trace=result_trace,
        stats=device.stats,
        config_name=device.config.name,
        engine="fast",
        slim_writes=plan.slim_writes,
        slim_reads=plan.slim_reads,
        fallback_requests=plan.fallback_requests,
    )


def _apply(device, outcome, arrival_arr):
    """Fold the timing outcome into the device; the shared apply step.

    The planner and the device's write and read steps have already
    accounted the requests' bytes and ops, and the admission queue,
    power state and resource frontiers are in ``device.timing``, which
    the timing pass advanced; its accumulators and the per-request
    samples go to the stats here.  Returns the dispatch and finish
    columns.
    """
    stats = device.stats
    dispatch_arr = np.array(outcome.dispatch_us, dtype=np.float64)
    finish_arr = np.array(outcome.finish_us, dtype=np.float64)
    # Element-wise subtraction is the same IEEE-754 op the kernel performs
    # per request, so these columns are bit-identical to its appends.
    wait_arr = dispatch_arr - arrival_arr
    service_arr = finish_arr - dispatch_arr
    response_arr = finish_arr - arrival_arr

    n = len(outcome.dispatch_us)
    stats.wait_us.extend(wait_arr.tolist())
    stats.service_us.extend(service_arr.tolist())
    stats.response_us.extend(response_arr.tolist())
    stats.requests += n
    stats.no_wait_requests += int(np.count_nonzero(wait_arr <= 1e-9))
    device.timing.store(stats)
    if device.faults is not None:
        device._sync_fault_stats()

    # Kernel end state: the clock sits at the last COMPLETE event (the
    # final finish -- finishes are monotone at depth 1), the arrival-time
    # timers were canceled by their dispatches, and fresh speculative
    # timers armed after the last request are left pending by drain().
    device._cancel_activity_timers()
    device.kernel.clock.advance_to(outcome.finish_us[-1])
    device._arm_activity_timers()
    return dispatch_arr, finish_arr
