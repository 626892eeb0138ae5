"""Eligibility rules for the replay fast path.

The two-pass engine models exactly one device behaviour: ``queue_depth=1``
FIFO service with no RAM buffer, no idle-time GC, page mapping, and a
kernel that holds nothing but the device's own speculative timers.
Fault plans and copy-back GC are modeled.  Both engines reserve op rows
through one routine (:func:`repro.emmc.reserve.reserve`), whose
ECC-retry branch draws the read faults and whose rows carry the GC flag
copy-back needs.  Program and erase failures fire inside ``Ftl.write``,
which the planner runs through the device's own write step for every
write of a device whose program failures are armed.
Everything else falls back to the event kernel -- correctness first,
speed second.

The decision is pure (no device mutation) and cheap enough to run on
every ``Host.replay`` and ``Host.replay_closed_loop`` call.
"""

from __future__ import annotations

from typing import Tuple

#: Environment switch for the dispatcher (read by
#: :func:`repro.replay.engine.fallback_reasons`); exactly three values:
#:
#: * ``auto`` (also unset or empty) -- use the fast path when eligible,
#:   fall back to the event kernel otherwise;
#: * ``off`` -- never use the fast path;
#: * ``require`` -- raise if the fast path is ineligible (parity jobs use
#:   this so a silent fallback cannot mask a regression).
#:
#: Any other value raises ``ValueError``.
REPLAY_FASTPATH_ENV = "REPRO_REPLAY_FASTPATH"


def decide(device, trace=None, first_arrival_us=None) -> Tuple[str, ...]:
    """Why ``device`` cannot replay ``trace`` on the fast path.

    Every reason returned names a behaviour the two-pass engine does not
    model; an empty tuple means the fast path is bit-exact for this
    replay.  A closed-loop replay has no trace yet -- its arrivals come
    out of the timing pass -- so it passes its first arrival as
    ``first_arrival_us`` instead.
    """
    reasons = []
    config = device.config
    if config.queue_depth != 1:
        reasons.append(f"queue_depth={config.queue_depth} (fast path models depth 1)")
    if device.buffer is not None:
        reasons.append("RAM buffer attached (absorption/eviction is event-driven)")
    if config.idle_gc:
        reasons.append("idle-time GC enabled (IDLE_GC timers fire between requests)")
    if config.mapping_scheme != "page":
        reasons.append(f"mapping scheme {config.mapping_scheme!r} (fast path walks the page FTL)")
    kernel = device.kernel
    if kernel.telemetry is not None:
        # A device's sink is always its kernel's sink, so this one row
        # also catches a sink attached to the kernel alone.  Parity tests
        # (tests/telemetry/test_host_observer.py) pin it as a *fallback*
        # precondition: the vectorized path computes the same timings but
        # fires no events and records no spans, so a telemetry replay
        # must take the kernel -- and REPRO_REPLAY_FASTPATH=require raises
        # here rather than silently losing the span stream.
        reasons.append(
            "telemetry sink attached (fast path records no spans or events)"
        )
    if kernel.pending_material():
        reasons.append("kernel holds pending material events (foreign producers)")
    if reasons:
        return tuple(reasons)
    # The only live events allowed on the kernel are the device's own
    # speculative timers -- anything else (another device sharing the
    # loop, app-stack ops) could interleave with the replay.
    own_timers = 0
    for timer in (device._idle_gc_timer, device._power_down_timer):
        if timer is not None and not timer.canceled:
            own_timers += 1
    if len(kernel) != own_timers:
        reasons.append("kernel holds events the fast path cannot model")
    if trace is not None and len(trace):
        first_arrival_us = trace[0].arrival_us
    if first_arrival_us is not None and first_arrival_us < kernel.now_us:
        # The kernel would raise SimTimeError scheduling this arrival;
        # fall back so the error surfaces identically.
        reasons.append("first arrival precedes the kernel clock")
    return tuple(reasons)
