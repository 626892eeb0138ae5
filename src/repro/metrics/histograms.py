"""Bucketed-distribution metrics (Figs. 4/5/6/7, paper bucket edges).

The states bin each chunk's values with
:func:`repro.metrics.buckets.bucket_counts` (first matching bucket wins)
and keep the integer count per bucket -- bucket membership is an
element-wise comparison, so chunking cannot change it -- and
``finalize()`` divides the counts by the total value count, exactly
like :func:`repro.metrics.buckets.histogram`, on any chunking and any
merge tree.

Only the inter-arrival histogram carries boundary state: the gap that
straddles two chunks (or two merged shards) is computed from the carried
``last_arrival_us`` with the same subtraction ``np.diff`` performs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.trace import TraceColumns, US_PER_MS
from repro.metrics.buckets import (
    Bucket,
    INTERARRIVAL_BUCKETS_MS,
    RESPONSE_BUCKETS_MS,
    SIZE_BUCKETS,
    bucket_counts,
)

from .base import Metric


class HistogramState:
    """Mergeable bucket counts over an arbitrary value stream.

    The generic core: feed raw values via :meth:`update_values`; the
    trace-facing subclasses below extract the right column per chunk.
    """

    __slots__ = ("buckets", "counts", "total")

    def __init__(self, buckets: Sequence[Bucket]) -> None:
        self.buckets = tuple(buckets)
        self.counts = {bucket.label: 0 for bucket in self.buckets}
        self.total = 0

    def update_values(self, values: np.ndarray) -> None:
        """Bin a batch of values (element-wise -- any order)."""
        array = np.asarray(values, dtype=np.float64)
        if array.size == 0:
            return
        self.total += int(array.size)
        for bucket, count in zip(self.buckets, bucket_counts(array, self.buckets)):
            self.counts[bucket.label] += count

    def merge(self, other: "HistogramState") -> None:
        """Absorb another summary over the same bucket set."""
        if other.buckets != self.buckets:
            raise ValueError("cannot merge histograms over different buckets")
        for label, count in other.counts.items():
            self.counts[label] += count
        self.total += other.total

    def finalize(self) -> Dict[str, float]:
        """Per-bucket fractions, exactly like :func:`~repro.metrics.buckets.histogram`."""
        if self.total == 0:
            return {label: 0.0 for label in self.counts}
        return {label: count / self.total for label, count in self.counts.items()}


class SizeHistogramState(HistogramState):
    """Fig. 4 / 7a: request-size distribution over the paper's buckets."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(SIZE_BUCKETS)

    def update(self, chunk: TraceColumns) -> None:
        self.update_values(chunk.size)


class ResponseHistogramState(HistogramState):
    """Fig. 5 / 7b: response-time distribution of completed requests."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(RESPONSE_BUCKETS_MS)

    def update(self, chunk: TraceColumns) -> None:
        completed_mask = chunk.completed_mask
        if completed_mask.any():
            self.update_values(chunk.response_us[completed_mask] / US_PER_MS)


class InterarrivalHistogramState(HistogramState):
    """Fig. 6 / 7c: inter-arrival-time distribution, with boundary state."""

    __slots__ = ("first_arrival_us", "last_arrival_us", "requests")

    def __init__(self) -> None:
        super().__init__(INTERARRIVAL_BUCKETS_MS)
        self.first_arrival_us: Optional[float] = None
        self.last_arrival_us: Optional[float] = None
        self.requests = 0

    def update(self, chunk: TraceColumns) -> None:
        rows = len(chunk)
        if rows == 0:
            return
        arrivals = chunk.arrival_us
        gaps = np.diff(arrivals) if rows > 1 else np.empty(0, dtype=np.float64)
        if self.last_arrival_us is not None:
            crossing = np.array(
                [float(arrivals[0]) - self.last_arrival_us], dtype=np.float64
            )
            gaps = np.concatenate((crossing, gaps))
        self.update_values(gaps / US_PER_MS)
        if self.first_arrival_us is None:
            self.first_arrival_us = float(arrivals[0])
        self.last_arrival_us = float(arrivals[-1])
        self.requests += rows

    def merge(self, other: "InterarrivalHistogramState") -> None:  # type: ignore[override]
        """Absorb the summary of the stream segment following this one."""
        if other.requests == 0:
            return
        if self.requests:
            assert other.first_arrival_us is not None
            assert self.last_arrival_us is not None
            crossing = np.array(
                [other.first_arrival_us - self.last_arrival_us], dtype=np.float64
            )
            self.update_values(crossing / US_PER_MS)
            self.last_arrival_us = other.last_arrival_us
        else:
            self.first_arrival_us = other.first_arrival_us
            self.last_arrival_us = other.last_arrival_us
        HistogramState.merge(self, other)
        self.requests += other.requests


class SizeDistributionMetric(Metric):
    """Fig. 4 / 7a: request-size fractions over the paper's buckets."""

    name = "size_distribution"
    value_doc = "{bucket label: fraction} over SIZE_BUCKETS (Fig. 4/7a)"
    carry_fields = ()  # element-wise binning: order-insensitive

    def init(self, collapse: bool = False) -> SizeHistogramState:
        del collapse  # integer counts: one state form serves both engines
        return SizeHistogramState()

    def finalize(self, state: SizeHistogramState, name: str = "") -> Dict[str, float]:
        del name
        return state.finalize()


class ResponseDistributionMetric(Metric):
    """Fig. 5 / 7b: response-time fractions of completed requests."""

    name = "response_distribution"
    value_doc = "{bucket label: fraction} over RESPONSE_BUCKETS_MS (Fig. 5/7b)"
    carry_fields = ()

    def init(self, collapse: bool = False) -> ResponseHistogramState:
        del collapse
        return ResponseHistogramState()

    def finalize(
        self, state: ResponseHistogramState, name: str = ""
    ) -> Dict[str, float]:
        del name
        return state.finalize()


class InterarrivalDistributionMetric(Metric):
    """Fig. 6 / 7c: inter-arrival-time fractions."""

    name = "interarrival_distribution"
    value_doc = "{bucket label: fraction} over INTERARRIVAL_BUCKETS_MS (Fig. 6/7c)"
    carry_fields = ("first_arrival_us", "last_arrival_us")

    def init(self, collapse: bool = False) -> InterarrivalHistogramState:
        del collapse
        return InterarrivalHistogramState()

    def finalize(
        self, state: InterarrivalHistogramState, name: str = ""
    ) -> Dict[str, float]:
        del name
        return state.finalize()


#: The registered singletons (see :mod:`repro.metrics.registry`).
SIZE_DISTRIBUTION = SizeDistributionMetric()
RESPONSE_DISTRIBUTION = ResponseDistributionMetric()
INTERARRIVAL_DISTRIBUTION = InterarrivalDistributionMetric()
