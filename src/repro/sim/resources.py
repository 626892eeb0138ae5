"""Serially-reusable resources: a reservation frontier per resource.

A :class:`ResourceTimeline` models one resource that serves at most one
operation at a time -- the eMMC controller, one channel bus, one die (or
plane).  Operations reserve ``[start, start + duration)`` windows in
arrival order with no preemption:

    ``start = max(next_free, earliest)``; ``next_free = start + duration``

and the timeline accumulates busy time and reservation counts.  The
device model keeps the same frontiers in flat columns
(:class:`repro.emmc.reserve.TimingState`), which both replay engines
reserve on; its ``controller``/``channels``/``units`` read them back as
timelines.

Under FIFO no-preemption service (the paper's eMMC: a single command
queue, sub-requests served in order), reserving eagerly at request
dispatch is provably equivalent to stepping an event per resource grant:
no later event can change an earlier reservation.  That equivalence is
what lets :class:`repro.emmc.device.EmmcDevice` answer ``submit()``
synchronously while the surrounding kernel stays event-driven.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple


class ResourceTimeline:
    """One serially-reusable resource's reservation frontier."""

    __slots__ = ("name", "next_free_us", "busy_us", "reservations")

    def __init__(self, name: str = "resource", free_at_us: float = 0.0) -> None:
        self.name = name
        self.next_free_us = float(free_at_us)
        self.busy_us = 0.0
        self.reservations = 0

    def reserve(self, earliest_us: float, duration_us: float) -> Tuple[float, float]:
        """Claim the next ``duration_us`` window at or after ``earliest_us``.

        Returns ``(start, end)`` and advances the frontier to ``end``.
        """
        start = max(self.next_free_us, earliest_us)
        end = start + duration_us
        self.next_free_us = end
        self.busy_us += duration_us
        self.reservations += 1
        return start, end

    def peek(self, earliest_us: float, duration_us: float) -> Tuple[float, float]:
        """The window :meth:`reserve` would grant, without claiming it."""
        start = max(self.next_free_us, earliest_us)
        return start, start + duration_us

    def is_free_at(self, time_us: float) -> bool:
        """Whether the resource is idle at ``time_us``."""
        return time_us >= self.next_free_us

    def utilization(self, horizon_us: float) -> float:
        """Busy fraction over ``[0, horizon_us]`` (0 for a zero horizon)."""
        if horizon_us <= 0:
            return 0.0
        return min(1.0, self.busy_us / horizon_us)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResourceTimeline({self.name!r}, next_free={self.next_free_us}, "
            f"busy={self.busy_us}, n={self.reservations})"
        )


class ResourcePool:
    """An indexed family of identical timelines (channels, dies, planes)."""

    __slots__ = ("name", "_timelines")

    def __init__(self, count: int, name: str = "pool") -> None:
        if count < 1:
            raise ValueError(f"a resource pool needs >= 1 member, got {count}")
        self.name = name
        self._timelines: List[ResourceTimeline] = [
            ResourceTimeline(f"{name}[{index}]") for index in range(count)
        ]

    def __len__(self) -> int:
        return len(self._timelines)

    def __getitem__(self, index: int) -> ResourceTimeline:
        return self._timelines[index]

    def __iter__(self) -> Iterator[ResourceTimeline]:
        return iter(self._timelines)

    def reserve(self, index: int, earliest_us: float, duration_us: float):
        """Reserve on member ``index``; returns ``(start, end)``."""
        return self._timelines[index].reserve(earliest_us, duration_us)

    @property
    def busy_us(self) -> float:
        """Total busy time across all members."""
        return sum(timeline.busy_us for timeline in self._timelines)

    @property
    def reservations(self) -> int:
        """Total reservations across all members."""
        return sum(timeline.reservations for timeline in self._timelines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResourcePool({self.name!r}, n={len(self._timelines)})"
