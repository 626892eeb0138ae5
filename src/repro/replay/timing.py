"""Timing pass: the kernel's serve step over the plan arrays.

This pass walks the :class:`~repro.replay.planner.ReplayPlan` request by
request and computes every dispatch and finish timestamp.  Each request
goes through the routines of :mod:`repro.emmc.reserve` that the event
kernel's ``EmmcDevice._serve`` calls, on the device's own
:class:`~repro.emmc.reserve.TimingState`, with the device's read-fault
injector: :func:`~repro.emmc.reserve.admit` (admission, the idle-gap
split and the wake-up charge), :func:`~repro.emmc.reserve.reserve` on
its op rows (the reservations, the busy-time accumulators and the ECC
retries: one ``read_failures()`` draw per read row, GC reads included,
in op order) and :func:`~repro.emmc.reserve.complete`.  So every piece
of per-request arithmetic is the kernel's by construction, and the
state ends where the kernel leaves it; the engine's apply step stores
the accumulators into the stats afterwards.

What is left here is specific to the fast path:

* The POWER_DOWN timer needs no heap.  At ``queue_depth=1`` the timer
  armed after request *i* fires iff its deadline (the activity end plus
  the threshold) is *strictly* before the next arrival -- at equal
  timestamps the ARRIVAL event's lower priority value wins and the serve
  cancels the timer.  A fired timer is :func:`~repro.emmc.reserve.power_down`,
  which only flips the flag and its entry counter; the warm-up charge
  itself comes from ``admit``'s gap comparison.
* A closed-loop replay's arrivals (below).

Closed loop
-----------

A closed-loop replay (:meth:`repro.sim.Host.replay_closed_loop`) has no
arrival column: request *i* is scheduled one think-time gap after
arrival *i - 1* and, if it is synchronous, also waits for completion
*i - 1*.  At ``queue_depth=1`` that completion is the ``finish`` this
loop has just computed, so the arrival is one more scalar recurrence in
the same loop -- ``arrival = previous_arrival + gap``, then
``max(arrival, previous_finish)`` for a synchronous request -- using the
exact IEEE operations the kernel-side caller performs.  Everything after
the arrival is the open-loop arithmetic unchanged.

Why a Python loop and not pure ndarray kernels: the inter-request
recurrences (queue busy-until, per-resource frontiers) are genuine
sequential dependencies -- ``np.maximum.accumulate`` covers the
dispatch column only when service times are known, but service times
depend on resource frontiers shared across requests.  The loop keeps
every chain bit-exact; the derived columns (wait/service/response,
no-wait counts) are vectorized in the engine where element-wise NumPy
arithmetic is bit-identical to the scalar expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import List, Optional, Sequence

import numpy as np

from repro.emmc.reserve import admit, complete, power_down, reserve


@dataclass
class TimingOutcome:
    """The timestamps of every request.

    Everything else the pass changes is in the device's
    :class:`~repro.emmc.reserve.TimingState`, which it advances in place.
    """

    #: The input arrivals (open loop) or the recurrence's (closed loop).
    arrival_us: List[float]
    dispatch_us: List[float]
    finish_us: List[float]


def compute_timing(
    device,
    plan,
    arrival_us: Optional[np.ndarray],
    gaps_us: Optional[Sequence[float]] = None,
    synchronous: Optional[Sequence[bool]] = None,
) -> TimingOutcome:
    """Run the timing pass over ``plan``.

    Advances ``device.timing`` (with the accumulators loaded from the
    device's stats) and draws the device's read faults; the timestamps
    come back in the outcome.  Open loop passes ``arrival_us``.  Closed
    loop passes ``None`` there plus the ``n - 1`` think-time ``gaps_us``
    and ``synchronous`` flags; each arrival is then computed from the
    previous completion (see *Closed loop* in the module docstring).
    """
    timer = device._power_down_timer
    timer_pending = timer is not None and not timer.canceled
    timer_deadline = timer.time_us if timer_pending else 0.0

    state = device.timing
    state.load(device.stats)
    faults = device.read_faults

    # One op row per flash op, (kind, unit, channel, unit_us, transfer_us,
    # gc), consumed strictly in order: request i takes the next
    # req_ops[i + 1] - req_ops[i] rows, at least one (every request reads
    # or programs a page).  The rows stream out of one zip over the plan's
    # columns, never a list of per-op tuples (zip reuses its result tuple
    # once the routine has unpacked it).
    rows = zip(
        plan.op_kind,
        plan.op_unit,
        plan.op_channel,
        plan.op_unit_us,
        plan.op_transfer_us,
        plan.op_gc,
    )
    req_ops = plan.req_ops
    closed_loop = arrival_us is None
    if closed_loop:
        # Filled in by the recurrence as the loop goes; the first arrival
        # is 0.0.
        arrivals = [0.0] * (len(req_ops) - 1)
        gaps = np.asarray(gaps_us, dtype=np.float64).tolist()
        sync = np.asarray(synchronous, dtype=bool).tolist()
    else:
        arrivals = arrival_us.tolist()

    dispatch_out: List[float] = []
    finish_out: List[float] = []
    append_dispatch = dispatch_out.append
    append_finish = finish_out.append

    position = 0
    for index, arrival in enumerate(arrivals):
        if closed_loop and index:
            # Host.replay_closed_loop's kernel-path ops: scheduled one gap
            # after the previous arrival; a synchronous request arrives at
            # max(scheduled, previous finish), here as a selection.
            arrival = arrivals[index - 1] + gaps[index - 1]
            if sync[index - 1] and finish > arrival:
                arrival = finish
            arrivals[index] = arrival

        # POWER_DOWN timer: fires iff strictly before this arrival (an
        # arrival at the deadline wins the tie and cancels it).
        if timer_pending and timer_deadline < arrival:
            power_down(state)

        dispatch, start = admit(state, arrival)
        boundary = req_ops[index + 1]
        finish = reserve(state, islice(rows, boundary - position), start, faults)
        position = boundary
        complete(state, finish)

        # The re-armed timer.
        timer_pending = True
        timer_deadline = state.power_down_us
        append_dispatch(dispatch)
        append_finish(finish)

    return TimingOutcome(arrivals, dispatch_out, finish_out)
