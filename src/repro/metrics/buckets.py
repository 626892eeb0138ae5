"""Histogram buckets used throughout the paper's figures.

Fig. 4 and Fig. 7a bucket request sizes; Fig. 5 and Fig. 7b bucket response
times; Fig. 6 and Fig. 7c bucket inter-arrival times.  The paper plots
stacked percentage bars over these ranges; we reproduce the same binning.

The buckets live in the metric layer (below :mod:`repro.workloads`, whose
size sampler draws from them) because the distribution metrics in
:mod:`repro.metrics.histograms` are defined over them and the metric
layer depends only on :mod:`repro.trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.trace import SECTOR


@dataclass(frozen=True)
class Bucket:
    """A half-open range ``(low, high]`` with a display label."""

    label: str
    low: float  # exclusive
    high: float  # inclusive; may be float('inf')

    def contains(self, value: float) -> bool:
        """True when ``value`` falls in ``(low, high]``."""
        return self.low < value <= self.high


def _make_buckets(edges: Sequence[Tuple[str, float, float]]) -> Tuple[Bucket, ...]:
    return tuple(Bucket(label, low, high) for label, low, high in edges)


#: Request size buckets (bytes).  ``<=4K`` is the single-page class the
#: paper's Characteristic 2 is about.
SIZE_BUCKETS: Tuple[Bucket, ...] = _make_buckets(
    [
        ("<=4K", 0, 4 * 1024),
        ("8K", 4 * 1024, 8 * 1024),
        ("(8K,16K]", 8 * 1024, 16 * 1024),
        ("(16K,64K]", 16 * 1024, 64 * 1024),
        ("(64K,256K]", 64 * 1024, 256 * 1024),
        (">256K", 256 * 1024, float("inf")),
    ]
)

#: Size bucket edges in 4 KB pages: (low_pages, high_pages) inclusive ranges,
#: aligned with :data:`SIZE_BUCKETS`.  The top bucket's high edge is
#: per-application (max request size), marked ``None`` here.
SIZE_BUCKET_PAGES: Tuple[Tuple[int, object], ...] = (
    (1, 1),
    (2, 2),
    (3, 4),
    (5, 16),
    (17, 64),
    (65, None),
)

#: Response-time buckets (milliseconds) for Fig. 5 / Fig. 7b.
RESPONSE_BUCKETS_MS: Tuple[Bucket, ...] = _make_buckets(
    [
        ("<=2ms", 0, 2),
        ("(2,4]ms", 2, 4),
        ("(4,8]ms", 4, 8),
        ("(8,16]ms", 8, 16),
        ("(16,128]ms", 16, 128),
        (">128ms", 128, float("inf")),
    ]
)

#: Inter-arrival-time buckets (milliseconds) for Fig. 6 / Fig. 7c.
INTERARRIVAL_BUCKETS_MS: Tuple[Bucket, ...] = _make_buckets(
    [
        ("<=1ms", 0, 1),
        ("(1,4]ms", 1, 4),
        ("(4,16]ms", 4, 16),
        ("(16,64]ms", 16, 64),
        ("(64,256]ms", 64, 256),
        (">256ms", 256, float("inf")),
    ]
)


def histogram(values: Sequence[float], buckets: Sequence[Bucket]) -> Dict[str, float]:
    """Fraction of ``values`` falling in each bucket, keyed by label.

    Values outside every bucket (impossible for the standard bucket sets,
    which cover ``(0, inf]``) are ignored.  Returns all-zero fractions for an
    empty input.

    Vectorized: values are bulk-compared against each bucket's edges
    (first matching bucket wins, exactly like the scalar reference loop
    in ``tests/analysis/oracles.py``); counts are exact integers, so the
    resulting fractions are bit-identical to the per-value loop.
    """
    total = len(values)
    if total == 0:
        return {bucket.label: 0.0 for bucket in buckets}
    array = np.asarray(values, dtype=np.float64)
    remaining = np.ones(array.shape, dtype=bool)
    counts = {bucket.label: 0 for bucket in buckets}
    for bucket in buckets:
        matched = remaining & (bucket.low < array) & (array <= bucket.high)
        counts[bucket.label] += int(np.count_nonzero(matched))
        remaining &= ~matched
    return {label: count / total for label, count in counts.items()}


def size_histogram(sizes_bytes: Sequence[int]) -> Dict[str, float]:
    """Fig. 4-style request size histogram (input in bytes)."""
    return histogram(list(sizes_bytes), SIZE_BUCKETS)


def pages_to_bucket_index(pages: int) -> int:
    """Index into :data:`SIZE_BUCKETS` for a request of ``pages`` 4 KB pages."""
    size = pages * SECTOR
    for index, bucket in enumerate(SIZE_BUCKETS):
        if bucket.contains(size):
            return index
    raise ValueError(f"no size bucket for {pages} pages")


def bucket_labels(buckets: Sequence[Bucket]) -> List[str]:
    """Display labels of the buckets, in order."""
    return [bucket.label for bucket in buckets]
