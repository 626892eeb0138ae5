"""The host side of the simulation: Host -> Device.

The :class:`Host` is the front door to a device, with one entry point
per arrival shape:

* :meth:`Host.replay` -- open loop.  Every request of a trace arrives at
  its recorded time, whatever the device does (the Fig. 8/9 replays).
* :meth:`Host.replay_closed_loop` -- closed loop.  Each arrival is paced
  by the device: request *i* is issued a think-time gap after request
  *i - 1*, and a synchronous request also waits for *i - 1* to complete.
  This is how closed-loop collection (the BIOtracer methodology in
  :mod:`repro.workloads.collection`) and the back-to-back device sweeps
  enter the device.

Both lower onto the two-pass fast path (:mod:`repro.replay`) when it is
eligible and bit-identical; otherwise they run on the event kernel,
where every request enters through an ``ARRIVAL`` event and the
device's admission step.  For a trace sorted by arrival time the kernel replay
is bit-identical to a request-at-a-time loop: arrivals fire in ``(time,
seq)`` order, which *is* trace order.  Out-of-order producers
(concurrent apps, monitor flushes) can still schedule arrivals at their
natural times and the kernel serializes them correctly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from repro.trace import Op, Request, SECTOR, Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.emmc.device import EmmcDevice, ReplayResult

#: The fallback reason of a replay with an ``on_complete`` observer.
OBSERVER_REASON = "on_complete observer attached (it watches COMPLETE events fire)"


class Host:
    """Submits block requests to a device through its event kernel."""

    def __init__(self, device: "EmmcDevice") -> None:
        self.device = device
        self.kernel = device.kernel

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
        idle-time GC, no telemetry sink, no foreign kernel events -- see
        :mod:`repro.replay.preconditions`) it is lowered onto the
        two-pass columnar fast path, which is bit-identical to the event
        kernel; anything else, or ``REPRO_REPLAY_FASTPATH=off``, takes
        the event loop below.  ``on_complete`` observers always use the
        kernel: they watch COMPLETE events fire.  The result's
        ``fallback_reasons`` say why the kernel ran.
        """
        from repro.emmc.device import ReplayResult  # local: avoids cycle

        if on_complete is None:
            from repro.replay import engine  # local: avoids cycle

            reasons = engine.fallback_reasons(self.device, trace)
            if not reasons:
                return engine.fast_replay(self.device, trace)
        else:
            reasons = (OBSERVER_REASON,)

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
            fallback_reasons=reasons,
        )

    def replay_closed_loop(
        self,
        lba: Sequence[int],
        size: Sequence[int],
        op: Sequence[Op],
        gaps_us: Sequence[float],
        synchronous: Sequence[bool],
        name: str = "closed-loop",
    ) -> "ReplayResult":
        """Serve a request stream closed-loop, each arrival paced by the device.

        ``lba``, ``size`` and ``op`` give the ``n`` requests in issue
        order.  ``gaps_us`` and ``synchronous`` hold one entry for each
        of requests ``1 .. n-1``: its think time after the previous
        arrival, and whether it also waits for the previous completion.
        The first request arrives at 0.0; request ``i`` is scheduled at
        ``arrival[i-1] + gaps_us[i-1]`` and, when synchronous, arrives at
        ``max(scheduled, finish[i-1])``.  Zero gaps with every request
        synchronous issue the requests back to back.

        Returns the completed trace (named ``name``) and the device
        statistics.  The replay lowers onto the two-pass fast path under
        the same ``REPRO_REPLAY_FASTPATH`` switch and preconditions as
        :meth:`replay`.  Otherwise each request is submitted to the event
        kernel in turn, and the kernel is drained at the end, so both
        engines leave the device in the same state.
        """
        from repro.emmc.device import ReplayResult  # local: avoids cycle

        ops = list(op)
        count = len(ops)
        lba_column = np.asarray(lba, dtype=np.int64)
        size_column = np.asarray(size, dtype=np.int64)
        gaps = np.asarray(gaps_us, dtype=np.float64)
        sync = np.asarray(synchronous, dtype=bool)
        paced = max(0, count - 1)
        if lba_column.shape != (count,) or size_column.shape != (count,):
            raise ValueError("lba, size and op must have one entry per request")
        if gaps.shape != (paced,) or sync.shape != (paced,):
            raise ValueError("gaps_us and synchronous need one entry per request after the first")
        if not (gaps >= 0.0).all():
            raise ValueError("think-time gaps must be non-negative")
        if ((lba_column < 0) | (lba_column % SECTOR != 0)).any():
            raise ValueError(f"lba must be a non-negative multiple of {SECTOR}")
        if ((size_column <= 0) | (size_column % SECTOR != 0)).any():
            raise ValueError(f"size must be a positive multiple of {SECTOR}")

        from repro.replay import engine  # local: avoids cycle

        # The first arrival is 0.0: that is what the preconditions check
        # against the kernel clock.
        reasons = engine.fallback_reasons(
            self.device, first_arrival_us=0.0 if count else None
        )
        if not reasons:
            return engine.fast_replay_closed_loop(
                self.device, lba_column, size_column, ops, gaps, sync, name
            )

        submit = self.device.submit
        completed: List[Request] = []
        gap_list = gaps.tolist()
        sync_list = sync.tolist()
        arrival = finish = 0.0
        for index, (lba_i, size_i, op_i) in enumerate(
            zip(lba_column.tolist(), size_column.tolist(), ops)
        ):
            if index:
                scheduled = arrival + gap_list[index - 1]
                arrival = max(scheduled, finish) if sync_list[index - 1] else scheduled
            done = submit(Request(arrival, lba_i, size_i, op_i))
            finish = done.finish_us
            completed.append(done)
        self.kernel.drain()
        return ReplayResult(
            trace=Trace(name, completed),
            stats=self.device.stats,
            config_name=self.device.config.name,
            fallback_reasons=reasons,
        )
