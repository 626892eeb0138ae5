"""Spatial/temporal locality metrics (paper Section III-C, Table IV).

* Spatial locality: the percentage of sequential request accesses over
  the total number of requests.  "A sequential request access happens
  when the starting address of the current request is next to the ending
  address of its predecessor."
* Temporal locality: the percentage of address hits out of the total
  number of requests, where the hit count "is increased by one when an
  address is re-accessed."

Both are integer counts over the LBA column (shifted-array equality for
spatial, a sorted distinct set for temporal), so the streaming states
are exact -- not approximately equal -- under any chunking and any merge
tree.  The only subtlety is the carry state:

* spatial locality compares each request's start address with its
  *predecessor's* end address, so the state carries the previous chunk's
  last ``end_lba`` (and its own first LBA, so that two mid-stream shards
  can account for the pair that straddles their boundary when merged);
* temporal locality is ``hits = n - #distinct``, so the state carries
  the sorted array of distinct LBAs seen so far (exactness requires the
  full distinct set -- a recency window would undercount re-hits -- and
  distinct addresses are a small fraction of requests for the paper's
  workloads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.trace import TraceColumns

from .base import Metric


@dataclass(frozen=True)
class Localities:
    """Measured localities of a trace, as fractions in [0, 1]."""

    spatial: float
    temporal: float

    @property
    def spatial_pct(self) -> float:
        """Spatial locality as a percentage."""
        return self.spatial * 100.0

    @property
    def temporal_pct(self) -> float:
        """Temporal locality as a percentage."""
        return self.temporal * 100.0


class SpatialLocalityState:
    """Single-pass, mergeable spatial locality."""

    __slots__ = ("total", "sequential", "first_lba", "last_end_lba")

    def __init__(self) -> None:
        self.total = 0
        self.sequential = 0
        self.first_lba: Optional[int] = None
        self.last_end_lba: Optional[int] = None

    def update(self, chunk: TraceColumns) -> None:
        """Fold the next chunk (in stream order) in."""
        rows = len(chunk)
        if rows == 0:
            return
        lba, size = chunk.lba, chunk.size
        if self.last_end_lba is not None and int(lba[0]) == self.last_end_lba:
            self.sequential += 1
        if rows > 1:
            self.sequential += int(np.count_nonzero(lba[1:] == lba[:-1] + size[:-1]))
        if self.first_lba is None:
            self.first_lba = int(lba[0])
        self.last_end_lba = int(lba[-1]) + int(size[-1])
        self.total += rows

    def merge(self, other: "SpatialLocalityState") -> None:
        """Absorb the summary of the stream segment following this one."""
        if other.total == 0:
            return
        self.sequential += other.sequential
        if self.last_end_lba is not None and other.first_lba == self.last_end_lba:
            self.sequential += 1
        if self.first_lba is None:
            self.first_lba = other.first_lba
        self.last_end_lba = other.last_end_lba
        self.total += other.total

    def finalize(self) -> float:
        """Fraction of sequential accesses."""
        if self.total == 0:
            return 0.0
        return self.sequential / self.total


class TemporalLocalityState:
    """Single-pass, mergeable temporal locality."""

    __slots__ = ("total", "_distinct")

    def __init__(self) -> None:
        self.total = 0
        self._distinct = np.empty(0, dtype=np.int64)

    def update(self, chunk: TraceColumns) -> None:
        """Fold the next chunk in (order does not matter here)."""
        rows = len(chunk)
        if rows == 0:
            return
        self.total += rows
        self._distinct = np.union1d(self._distinct, chunk.lba)

    def merge(self, other: "TemporalLocalityState") -> None:
        """Absorb another segment's summary (any order -- set union)."""
        self.total += other.total
        self._distinct = np.union1d(self._distinct, other._distinct)

    @property
    def distinct(self) -> int:
        """Number of distinct start addresses seen."""
        return int(self._distinct.size)

    def finalize(self) -> float:
        """Fraction of re-hits ``(n - #distinct) / n``."""
        if self.total == 0:
            return 0.0
        return (self.total - self.distinct) / self.total


class LocalitiesState:
    """Both localities together (the shape :class:`Localities` finalizes to)."""

    __slots__ = ("spatial", "temporal")

    def __init__(self) -> None:
        self.spatial = SpatialLocalityState()
        self.temporal = TemporalLocalityState()

    def update(self, chunk: TraceColumns) -> None:
        self.spatial.update(chunk)
        self.temporal.update(chunk)

    def merge(self, other: "LocalitiesState") -> None:
        self.spatial.merge(other.spatial)
        self.temporal.merge(other.temporal)

    def finalize(self) -> Localities:
        """Both fractions in one :class:`Localities`."""
        return Localities(
            spatial=self.spatial.finalize(), temporal=self.temporal.finalize()
        )


class SpatialLocalityMetric(Metric):
    """Fraction of requests starting exactly at their predecessor's end."""

    name = "spatial_locality"
    value_doc = "float fraction of sequential accesses (Table IV SpatLoc)"
    carry_fields = ("first_lba", "last_end_lba")

    def init(self, collapse: bool = False) -> SpatialLocalityState:
        del collapse  # integer counts: one state form serves both engines
        return SpatialLocalityState()

    def finalize(self, state: SpatialLocalityState, name: str = "") -> float:
        del name
        return state.finalize()


class TemporalLocalityMetric(Metric):
    """Fraction of requests whose start address was accessed before.

    The first occurrence of each distinct address is a miss and every
    re-occurrence a hit, so ``hits = n - #distinct`` -- a sorted distinct
    set instead of a per-request set walk.
    """

    name = "temporal_locality"
    value_doc = "float fraction of address re-hits (Table IV TempLoc)"
    carry_fields = ("distinct_lbas",)

    def init(self, collapse: bool = False) -> TemporalLocalityState:
        del collapse
        return TemporalLocalityState()

    def finalize(self, state: TemporalLocalityState, name: str = "") -> float:
        del name
        return state.finalize()


class LocalitiesMetric(Metric):
    """Both localities in one pass-friendly metric."""

    name = "localities"
    value_doc = "Localities(spatial, temporal) fractions in one object"
    carry_fields = ("first_lba", "last_end_lba", "distinct_lbas")

    def init(self, collapse: bool = False) -> LocalitiesState:
        del collapse
        return LocalitiesState()

    def finalize(self, state: LocalitiesState, name: str = "") -> Localities:
        del name
        return state.finalize()


#: The registered singletons (see :mod:`repro.metrics.registry`).
SPATIAL_LOCALITY = SpatialLocalityMetric()
TEMPORAL_LOCALITY = TemporalLocalityMetric()
LOCALITIES = LocalitiesMetric()
