"""Timing pass: the kernel's reservation arithmetic over the plan arrays.

This pass is a pure function of the device's current timing state (queue
busy-until, power idle clock, resource frontiers, accumulated busy-time
floats) and the :class:`~repro.replay.planner.ReplayPlan`: it computes
every request's dispatch and finish timestamps plus the final state,
without mutating the device.  The engine applies the outcome afterwards.

Exactness contract
------------------

Floating-point addition is not associative, so this loop re-performs the
kernel's arithmetic *operation by operation* in the same order:

* ``dispatch = max(arrival, busy_until)`` and every
  ``start = max(frontier, earliest)`` are selections -- they introduce no
  new rounding, only choose an existing float -- so carrying frontiers as
  scalars is exact;
* within a request, each op's chain (controller issue -> unit -> channel,
  or controller -> channel -> unit for programs) mirrors
  :meth:`EmmcDevice._schedule` including the order of ``+`` operations;
* busy-time accumulators (``busy_read_us``,
  ``busy_transfer_us += transfer_end - transfer_start``, idle-gap splits)
  are accumulated in the same per-op / per-request order the kernel uses,
  starting from the device's current values.

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
from typing import List, Optional, Sequence

import numpy as np


@dataclass
class TimingOutcome:
    """Timestamps plus the final device timing state (absolute values)."""

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

    # DeviceStats float accumulators (absolute, already folded in).
    active_idle_us: float
    low_power_us: float
    busy_read_us: float
    busy_program_us: float
    busy_erase_us: float
    busy_transfer_us: float
    erases: int

    # Resource timelines.
    controller_next_free_us: float
    controller_busy_us: float
    controller_reservations: int
    channel_next_free_us: List[float]
    channel_busy_us: List[float]
    channel_reservations: List[int]
    unit_next_free_us: List[float]
    unit_busy_us: List[float]
    unit_reservations: List[int]


def compute_timing(
    device,
    plan,
    arrival_us: Optional[np.ndarray],
    gaps_us: Optional[Sequence[float]] = None,
    synchronous: Optional[Sequence[bool]] = None,
) -> TimingOutcome:
    """Run the timing pass; reads device state, never mutates it.

    Open loop passes ``arrival_us``.  Closed loop passes ``None`` there
    plus the ``n - 1`` think-time ``gaps_us`` and ``synchronous`` flags;
    each arrival is then computed from the previous completion (see
    *Closed loop* in the module docstring).
    """
    latency = device.latency
    ftl_overhead = latency.ftl_overhead_us
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

    controller = device.controller
    ctrl_free = controller.next_free_us
    ctrl_busy = controller.busy_us
    ctrl_count = controller.reservations
    ch_free = [timeline.next_free_us for timeline in device.channels]
    ch_busy = [timeline.busy_us for timeline in device.channels]
    ch_count = [timeline.reservations for timeline in device.channels]
    unit_free = [timeline.next_free_us for timeline in device.units]
    unit_busy = [timeline.busy_us for timeline in device.units]
    unit_count = [timeline.reservations for timeline in device.units]

    stats = device.stats
    active_idle = stats.active_idle_us
    low_power_us = stats.low_power_us
    busy_read = stats.busy_read_us
    busy_program = stats.busy_program_us
    busy_erase = stats.busy_erase_us
    busy_transfer = stats.busy_transfer_us
    erases = stats.erases

    # Ops are consumed strictly in order, so the hot loop unpacks one
    # tuple per op straight from a zip over the .tolist() columns: a
    # single C-level call instead of five list indexings, and no list of
    # per-op tuples (zip reuses its result tuple once it is unpacked).
    next_op = zip(
        plan.op_kind.tolist(),
        plan.op_unit.tolist(),
        plan.op_unit_us.tolist(),
        plan.op_channel.tolist(),
        plan.op_transfer_us.tolist(),
    ).__next__
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
            finish = start
            while position < boundary:
                # Controller reservation: earliest is always the request
                # start (the kernel passes `start` for every op).
                issue_start = ctrl_free if ctrl_free > start else start
                issue = issue_start + ftl_overhead
                ctrl_free = issue
                ctrl_busy += ftl_overhead
                ctrl_count += 1
                kind, unit, unit_duration, channel, transfer = next_op()
                if kind == 1:  # PROGRAM: channel from issue, unit after.
                    t_start = ch_free[channel]
                    if t_start < issue:
                        t_start = issue
                    t_end = t_start + transfer
                    ch_free[channel] = t_end
                    ch_busy[channel] += transfer
                    ch_count[channel] += 1
                    u_start = unit_free[unit]
                    if u_start < t_end:
                        u_start = t_end
                    u_end = u_start + unit_duration
                    unit_free[unit] = u_end
                    unit_busy[unit] += unit_duration
                    unit_count[unit] += 1
                    busy_transfer += t_end - t_start
                    busy_program += unit_duration
                    op_finish = u_end
                elif kind == 0:  # READ: unit from issue, channel after.
                    u_start = unit_free[unit]
                    if u_start < issue:
                        u_start = issue
                    u_end = u_start + unit_duration
                    unit_free[unit] = u_end
                    unit_busy[unit] += unit_duration
                    unit_count[unit] += 1
                    t_start = ch_free[channel]
                    if t_start < u_end:
                        t_start = u_end
                    t_end = t_start + transfer
                    ch_free[channel] = t_end
                    ch_busy[channel] += transfer
                    ch_count[channel] += 1
                    busy_transfer += t_end - t_start
                    busy_read += unit_duration
                    op_finish = t_end
                else:  # ERASE: unit only.
                    u_start = unit_free[unit]
                    if u_start < issue:
                        u_start = issue
                    u_end = u_start + unit_duration
                    unit_free[unit] = u_end
                    unit_busy[unit] += unit_duration
                    unit_count[unit] += 1
                    erases += 1
                    busy_erase += unit_duration
                    op_finish = u_end
                if op_finish > finish:
                    finish = op_finish
                position += 1

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
        busy_read_us=busy_read,
        busy_program_us=busy_program,
        busy_erase_us=busy_erase,
        busy_transfer_us=busy_transfer,
        erases=erases,
        controller_next_free_us=ctrl_free,
        controller_busy_us=ctrl_busy,
        controller_reservations=ctrl_count,
        channel_next_free_us=ch_free,
        channel_busy_us=ch_busy,
        channel_reservations=ch_count,
        unit_next_free_us=unit_free,
        unit_busy_us=unit_busy,
        unit_reservations=unit_count,
    )
