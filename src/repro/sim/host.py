"""The host side of the simulation: Host -> Queue -> Device.

The experiment harness used to call ``EmmcDevice.replay`` directly; the
:class:`Host` is now the front door.  It schedules every trace request as
a typed ``ARRIVAL`` event on the device's kernel and drains the loop, so
open-loop replay, closed-loop collection and the Android stack all enter
the device the same way -- through the event loop and the admission
queue -- instead of three slightly different inline paths.

For a trace sorted by arrival time this is bit-identical to the old
request-at-a-time loop: arrivals fire in ``(time, seq)`` order, which *is*
trace order, and each arrival runs the same admission/expansion/timing
pipeline.  What it adds is the seam the roadmap needs: out-of-order
producers (concurrent apps, monitor flushes) can schedule arrivals at
their natural times and the kernel serializes them correctly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.trace import Request, Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.emmc.device import EmmcDevice, ReplayResult


class Host:
    """Submits block requests to a device through its event kernel."""

    def __init__(self, device: "EmmcDevice") -> None:
        self.device = device
        self.kernel = device.kernel

    def submit(self, request: Request) -> Request:
        """Serve one request synchronously (closed-loop callers).

        Requests must be submitted in non-decreasing arrival order; the
        kernel enforces this (the clock cannot move backwards).
        """
        return self.device.submit(request)

    def replay(
        self,
        trace: Trace,
        on_complete: Optional[Callable[[Request], None]] = None,
    ) -> "ReplayResult":
        """Serve every request of ``trace`` in arrival order.

        Returns the trace with device timestamps filled in plus the device
        statistics -- the paper's replay methodology for Figs. 8 and 9.
        ``on_complete`` (if given) fires at each request's completion
        *event*, in completion order.

        When the replay is eligible (queue_depth=1, no RAM buffer, no
        faults, no foreign kernel events -- see
        :mod:`repro.replay.preconditions`) it is lowered onto the
        two-pass columnar fast path, which is bit-identical to the event
        kernel; anything else, or ``REPRO_REPLAY_FASTPATH=off``, takes
        the event loop below.  ``on_complete`` observers always use the
        kernel: they watch COMPLETE events fire.
        """
        from repro.emmc.device import ReplayResult  # local: avoids cycle

        if on_complete is None:
            from repro.replay import maybe_fast_replay  # local: avoids cycle

            fast = maybe_fast_replay(self.device, trace)
            if fast is not None:
                return fast

        completed: List[Request] = []
        for request in trace:
            self.device.arrive(
                request,
                on_complete=on_complete,
                record_to=completed,
            )
        self.kernel.drain()
        return ReplayResult(
            trace=trace.with_requests(completed),
            stats=self.device.stats,
            config_name=self.device.config.name,
        )
