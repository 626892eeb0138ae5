"""The heap-based discrete-event loop shared by device and Android stack.

One :class:`EventLoop` instance is the beating heart of a simulation: the
device schedules request completions and idle/power timers on it, the
Android stack schedules application ops and monitor-flush arrivals, and
everything is processed in the deterministic ``(time, priority, seq)``
order defined by :mod:`repro.sim.events`.

Two drain styles:

* :meth:`run_until` -- process everything due up to (and including) a
  time; used by the synchronous ``EmmcDevice.submit`` path, which keeps
  the old closed-loop collection methodology bit-identical.
* :meth:`drain` -- process until only speculative timers remain; used for
  whole-trace replay and stack runs, where a trailing idle-GC or
  power-down deadline after the last request must not fire.

The loop records an optional event trace so tests can assert *identical
event order* across runs and processes: pass a
:class:`repro.telemetry.Telemetry` sink and every fired event lands in
its ``kernel_events``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.telemetry import Telemetry

from .clock import SimClock, SimTimeError
from .events import Event, EventKind


class SimInterrupt(RuntimeError):
    """The loop was cut (power loss) before firing its next event.

    Raised by :meth:`EventLoop.step` / :meth:`EventLoop.run_until` when an
    :meth:`EventLoop.interrupt_before` deadline is reached: exactly
    ``processed`` events have fired and the next live event (if any) has
    *not*.  The clock still reads the time of the last fired event, which
    is the instant the simulated power was lost.
    """

    def __init__(self, processed: int, now_us: float) -> None:
        super().__init__(f"simulation interrupted after {processed} events at {now_us}us")
        self.processed = processed
        self.now_us = now_us


class EventLoop:
    """Deterministic discrete-event scheduler around a :class:`SimClock`."""

    def __init__(
        self,
        start_us: float = 0.0,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.clock = SimClock(start_us)
        self._heap: List[Event] = []
        self._seq = 0
        #: Pending non-timer events (arrivals, completions, app ops).
        self._material_pending = 0
        #: Counters: events processed / scheduled / canceled so far.
        self.processed = 0
        self.scheduled = 0
        self.cancellations = 0
        #: Telemetry sink; ``None`` = nothing recorded (the hot path takes
        #: no recording branch).
        self.telemetry = telemetry
        #: Interrupt (power-loss) deadline: raise before firing event number
        #: ``_interrupt_before`` (0-based count of processed events).
        self._interrupt_before: Optional[int] = None

    def successor(self, start_us: float) -> "EventLoop":
        """A fresh loop at ``start_us`` recording into the same sink.

        Used by power-loss recovery: an attached sink (device telemetry)
        survives the power cycle -- spans are replay-lifetime state like
        ``DeviceStats`` -- while the event heap, like the device's
        volatile state, is gone.
        """
        return EventLoop(start_us=start_us, telemetry=self.telemetry)

    # -- introspection -----------------------------------------------------------

    @property
    def now_us(self) -> float:
        """Current simulated time."""
        return self.clock.now_us

    def __len__(self) -> int:
        """Number of scheduled-and-not-canceled events still pending."""
        return sum(1 for event in self._heap if not event.canceled)

    def pending_material(self) -> int:
        """Pending non-timer events (work that must still be processed)."""
        return self._material_pending

    def peek_time(self) -> Optional[float]:
        """Fire time of the next live event, or ``None`` when drained."""
        self._discard_canceled()
        return self._heap[0].time_us if self._heap else None

    # -- scheduling --------------------------------------------------------------

    def schedule(
        self,
        time_us: float,
        callback: Optional[Callable[[Event], None]] = None,
        kind: EventKind = EventKind.GENERIC,
        payload: Any = None,
        label: str = "",
    ) -> Event:
        """Add an event at ``time_us``; refuses times before the clock."""
        if time_us < self.clock.now_us:
            raise SimTimeError(
                f"cannot schedule {kind.name} at {time_us}: "
                f"clock already at {self.clock.now_us}"
            )
        event = Event(
            time_us=time_us,
            kind=kind,
            seq=self._seq,
            callback=callback,
            payload=payload,
            label=label,
        )
        self._seq += 1
        self.scheduled += 1
        if not kind.is_timer:
            self._material_pending += 1
        heapq.heappush(self._heap, event)
        return event

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a pending event (no-op for ``None`` or already-canceled)."""
        if event is None or event.canceled:
            return
        event.cancel()
        self.cancellations += 1
        if not event.kind.is_timer:
            self._material_pending -= 1

    def interrupt_before(self, event_count: int) -> None:
        """Arm a power-loss cut before the ``event_count``-th fired event.

        Once ``event_count`` events have been processed, the next attempt
        to fire one raises :class:`SimInterrupt` instead.  ``0`` means the
        very next event; counting is from loop creation (``processed``).
        Disarm with ``interrupt_before(None)``.
        """
        if event_count is not None and event_count < 0:
            raise ValueError("interrupt deadline must be non-negative")
        self._interrupt_before = event_count

    def _check_interrupt(self) -> None:
        """Raise (and disarm) if the interrupt deadline has been reached."""
        if self._interrupt_before is not None and self.processed >= self._interrupt_before:
            self._interrupt_before = None
            raise SimInterrupt(self.processed, self.clock.now_us)

    # -- processing --------------------------------------------------------------

    def _discard_canceled(self) -> None:
        while self._heap and self._heap[0].canceled:
            heapq.heappop(self._heap)

    def _fire(self, event: Event) -> None:
        self.clock.advance_to(event.time_us)
        if not event.kind.is_timer:
            self._material_pending -= 1
        self.processed += 1
        if self.telemetry is not None:
            self.telemetry.kernel_events.append(
                (event.time_us, event.kind.priority, event.seq,
                 event.kind.name, event.label)
            )
        if event.callback is not None:
            event.callback(event)

    def step(self) -> bool:
        """Fire the single next live event; False when nothing is pending.

        Raises :class:`SimInterrupt` when an armed
        :meth:`interrupt_before` deadline is due and an event would fire.
        """
        self._discard_canceled()
        if not self._heap:
            return False
        self._check_interrupt()
        self._fire(heapq.heappop(self._heap))
        return True

    def run_until(self, time_us: float) -> int:
        """Fire every event due at or before ``time_us``; advance the clock.

        Returns the number of events fired.  Events scheduled *during*
        processing are themselves fired when due within the window.
        """
        fired = 0
        while True:
            self._discard_canceled()
            if not self._heap or self._heap[0].time_us > time_us:
                break
            self._check_interrupt()
            self._fire(heapq.heappop(self._heap))
            fired += 1
        if time_us > self.clock.now_us:
            self.clock.advance_to(time_us)
        return fired

    def run(self) -> int:
        """Fire absolutely everything, timers included; returns the count."""
        fired = 0
        while self.step():
            fired += 1
        return fired

    def drain(self) -> int:
        """Fire events until only speculative timers remain.

        Timers *preceding* material work still fire (an idle-GC deadline
        between two bursts is real); timers trailing the last arrival or
        completion are left pending, matching the old end-of-run
        semantics where nothing happens after the final request.
        """
        fired = 0
        while self._material_pending > 0 and self.step():
            fired += 1
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventLoop(now={self.clock.now_us}, pending={len(self)}, "
            f"processed={self.processed})"
        )
