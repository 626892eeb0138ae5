"""Timing pass: the kernel's reservation arithmetic over the plan arrays.

This pass walks the :class:`~repro.replay.planner.ReplayPlan` request by
request and computes every dispatch and finish timestamp.  It hands each
request's op rows to :func:`repro.emmc.reserve.reserve`, the routine the
event kernel's ``EmmcDevice._schedule`` calls at each dispatch, on the
device's own :class:`~repro.emmc.reserve.TimingState`, with the device's
read-fault injector.  So the reservations, the busy-time accumulators
and the ECC retries (one ``read_failures()`` draw per read row, GC reads
included, in op order) are the kernel's by construction.  What is left
here is the arithmetic around the reservation -- admission, idle-gap
accounting, wake-ups and the power-down timer -- which the engine's
apply step folds into the device afterwards, together with the state's
accumulators.

Exactness contract
------------------

Floating-point addition is not associative, so this loop re-performs the
kernel's per-request arithmetic *operation by operation* in the same
order:

* ``dispatch = max(arrival, busy_until)`` is a selection -- it
  introduces no new rounding, only chooses an existing float -- so
  carrying it as a scalar is exact;
* the idle-gap split (``active_idle_us``, ``low_power_us``) is
  accumulated in the same per-request order the kernel uses, starting
  from the device's current values;
* everything per op is the shared routine.

The POWER_DOWN timer needs no heap: at ``queue_depth=1`` the timer armed
after request *i* fires iff its deadline (``last_activity_end +
threshold``) is *strictly* before the next arrival -- at equal
timestamps the ARRIVAL event's lower priority value wins and the serve
cancels the timer.  A fired timer only flips the low-power flag and its
entry counter; the warm-up charge itself comes from the same
``gap > threshold`` comparison the closed-form model uses.

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

from repro.emmc.reserve import reserve


@dataclass
class TimingOutcome:
    """Timestamps plus the final queue and power state (absolute values).

    The resource frontiers and the busy, erase and fault accumulators are
    in the device's :class:`~repro.emmc.reserve.TimingState`, which the
    pass advances in place.
    """

    #: The input arrivals (open loop) or the recurrence's (closed loop).
    arrival_us: List[float]
    dispatch_us: List[float]
    finish_us: List[float]

    # AdmissionQueue (depth 1).
    busy_until_us: float
    slot_waits: int

    # PowerModel.
    last_activity_end_us: float
    low_power: bool
    wakeups: int
    mode_switches: int
    low_power_entries: int

    # DeviceStats idle-gap accumulators (absolute, already folded in).
    active_idle_us: float
    low_power_us: float


def compute_timing(
    device,
    plan,
    arrival_us: Optional[np.ndarray],
    gaps_us: Optional[Sequence[float]] = None,
    synchronous: Optional[Sequence[bool]] = None,
) -> TimingOutcome:
    """Run the timing pass over ``plan``.

    Advances ``device.timing`` (with the accumulators loaded from the
    device's stats) and draws the device's read faults; everything else
    comes back in the outcome for the engine to apply.  Open loop passes
    ``arrival_us``.  Closed loop passes ``None`` there plus the ``n - 1``
    think-time ``gaps_us`` and ``synchronous`` flags; each arrival is
    then computed from the previous completion (see *Closed loop* in the
    module docstring).
    """
    latency = device.latency
    command_overhead = latency.command_overhead_us
    threshold = latency.power_threshold_us
    warmup = latency.warmup_us

    queue = device.queue
    busy_until = queue._busy_until_us
    slot_waits = queue.slot_waits

    power = device.power
    last_end = power._last_activity_end_us
    low_power = power._low_power
    wakeups = power.wakeups
    mode_switches = power.mode_switches
    low_power_entries = power.low_power_entries

    timer = device._power_down_timer
    timer_pending = timer is not None and not timer.canceled
    timer_deadline = timer.time_us if timer_pending else 0.0

    stats = device.stats
    active_idle = stats.active_idle_us
    low_power_us = stats.low_power_us
    state = device.timing
    state.load(stats)
    faults = device.read_faults

    # One op row per flash op, (kind, unit, channel, unit_us, transfer_us,
    # gc), consumed strictly in order: request i takes the next
    # req_ops[i + 1] - req_ops[i] rows.  The rows stream out of one zip
    # over the .tolist() columns, never a list of per-op tuples (zip
    # reuses its result tuple once the routine has unpacked it).
    rows = zip(
        plan.op_kind.tolist(),
        plan.op_unit.tolist(),
        plan.op_channel.tolist(),
        plan.op_unit_us.tolist(),
        plan.op_transfer_us.tolist(),
        plan.op_gc.tolist(),
    )
    req_ops = plan.req_ops.tolist()
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
        # arrival at the deadline wins the tie and cancels it).  Firing
        # only flips the flag/counter; the warm-up charge is gap-based.
        if timer_pending and timer_deadline < arrival and not low_power:
            low_power = True
            low_power_entries += 1

        # AdmissionQueue.admit (depth 1).
        if busy_until > arrival:
            dispatch = busy_until
            slot_waits += 1
        else:
            dispatch = arrival

        # EmmcDevice._account_idle.
        gap = dispatch - last_end
        if gap > 0:
            if gap > threshold:
                active_idle += threshold
                low_power_us += gap - threshold
            else:
                active_idle += gap

        # PowerModel.wake (wakeup_penalty's strict comparison).
        if dispatch - last_end > threshold:
            wakeups += 1
            mode_switches += 2
            start = dispatch + warmup
        else:
            start = dispatch
        low_power = False

        # EmmcDevice._schedule over this request's planned ops.
        boundary = req_ops[index + 1]
        if position == boundary:
            finish = start + command_overhead  # _absorbed_latency, no buffer
        else:
            finish = reserve(state, islice(rows, boundary - position), start, faults)
            position = boundary

        # Post-serve bookkeeping: queue, power, re-armed timer.
        if finish > busy_until:
            busy_until = finish
        if finish > last_end:
            last_end = finish
        timer_pending = True
        timer_deadline = last_end + threshold
        append_dispatch(dispatch)
        append_finish(finish)

    return TimingOutcome(
        arrival_us=arrivals,
        dispatch_us=dispatch_out,
        finish_us=finish_out,
        busy_until_us=busy_until,
        slot_waits=slot_waits,
        last_activity_end_us=last_end,
        low_power=low_power,
        wakeups=wakeups,
        mode_switches=mode_switches,
        low_power_entries=low_power_entries,
        active_idle_us=active_idle,
        low_power_us=low_power_us,
    )
