"""Request-size sampling calibrated to Table III / Fig. 4.

Each application gets one :class:`SizeModel` per access type.  A model is a
histogram over the paper's six size buckets (see
:mod:`repro.metrics.buckets`) plus a within-bucket spread parameter.  The
histogram shape is either given explicitly (Movie, Booting, ... have
distinctive shapes called out in the paper) or built parametrically from

* ``frac_4k`` -- the share of single-page (4 KB) requests, the quantity the
  paper's Characteristic 2 ranges over (44.9 %-57.4 % for 15 of 18 apps), and
* ``mean_pages`` -- the per-op average request size from Table III,

by distributing the non-4K mass geometrically over the remaining buckets and
solving the decay ratio and within-bucket spread so the analytic mean matches
the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.buckets import SIZE_BUCKET_PAGES

#: Within-bucket spread used as the preferred operating point when solving
#: the geometric decay ratio (see :func:`calibrate`).
_DEFAULT_SPREAD = 0.35


def _bucket_ranges(max_pages: int) -> List[Tuple[int, int]]:
    """Concrete (low, high) page ranges, truncated to ``max_pages``."""
    ranges: List[Tuple[int, int]] = []
    for low, high in SIZE_BUCKET_PAGES:
        concrete_high = max_pages if high is None else min(int(high), max_pages)
        if low > max_pages:
            break
        ranges.append((low, max(low, concrete_high)))
    return ranges


def _bucket_mean(low: int, high: int, spread: float) -> float:
    """Mean of the within-bucket distribution.

    Within a bucket we emit the low edge with probability ``1 - spread`` and
    a uniform integer in ``[low + 1, high]`` with probability ``spread``
    (degenerating to the low edge for single-value buckets).
    """
    if high <= low:
        return float(low)
    return (1.0 - spread) * low + spread * (low + 1 + high) / 2.0


@dataclass(frozen=True)
class SizeModel:
    """A calibrated request-size distribution, in 4 KB pages."""

    fractions: Tuple[float, ...]  # mass per bucket, sums to 1
    ranges: Tuple[Tuple[int, int], ...]  # page range per bucket
    spread: float  # within-bucket spread in [0, 1]

    def __post_init__(self) -> None:
        if len(self.fractions) != len(self.ranges):
            raise ValueError("fractions and ranges must align")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError(f"bucket fractions sum to {sum(self.fractions)}, not 1")
        if not 0.0 <= self.spread <= 1.0:
            raise ValueError(f"spread must be in [0, 1], got {self.spread}")

    @property
    def mean_pages(self) -> float:
        """Analytic mean request size in pages."""
        return sum(
            fraction * _bucket_mean(low, high, self.spread)
            for fraction, (low, high) in zip(self.fractions, self.ranges)
        )

    @property
    def frac_4k(self) -> float:
        """Share of single-page requests."""
        return self.fractions[0] if self.ranges and self.ranges[0] == (1, 1) else 0.0

    @property
    def max_pages(self) -> int:
        """Largest emittable request size, in pages."""
        return max(high for _, high in self.ranges)

    @cached_property
    def _bucket_cdf(self) -> np.ndarray:
        """Normalized cumulative bucket masses (cached once per model).

        ``Generator.choice(n, p=p)`` internally draws **one** uniform
        double and does ``searchsorted(cumsum(p) / cumsum(p)[-1], u,
        side="right")``; precomputing the CDF and issuing the same single
        ``rng.random()`` draw reproduces both the sampled bucket *and* the
        RNG stream position bit-for-bit while skipping ``choice``'s
        per-call validation/cumsum overhead (the synthesis hot path).
        """
        cdf = np.asarray(self.fractions, dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        return cdf

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one request size, in pages.

        Stream-compatible with the original ``rng.choice``-based
        implementation (the ``_reference_sample`` test oracle): identical
        draws, identical values.
        """
        bucket = int(self._bucket_cdf.searchsorted(rng.random(), side="right"))
        low, high = self.ranges[bucket]
        if high <= low or rng.random() >= self.spread:
            return low
        return int(rng.integers(low + 1, high + 1))

    def sample_many(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` request sizes, in pages."""
        return np.array([self.sample(rng) for _ in range(count)], dtype=np.int64)


def from_histogram(
    fractions: Sequence[float],
    max_pages: int,
    mean_pages: Optional[float] = None,
    spread: float = _DEFAULT_SPREAD,
) -> SizeModel:
    """Build a model from an explicit bucket histogram.

    Args:
        fractions: mass per bucket (padded/truncated to the buckets that
            exist under ``max_pages``); renormalized.
        max_pages: largest request size in pages.
        mean_pages: if given, the within-bucket ``spread`` is solved so the
            analytic mean matches (clamped to the achievable range).
        spread: spread to use when ``mean_pages`` is not given.
    """
    ranges = _bucket_ranges(max_pages)
    raw = list(fractions[: len(ranges)])
    raw += [0.0] * (len(ranges) - len(raw))
    total = sum(raw)
    if total <= 0:
        raise ValueError("histogram has no mass")
    normalized = tuple(value / total for value in raw)
    if mean_pages is None:
        return SizeModel(normalized, tuple(ranges), spread)
    low_mean = sum(f * _bucket_mean(lo, hi, 0.0) for f, (lo, hi) in zip(normalized, ranges))
    high_mean = sum(f * _bucket_mean(lo, hi, 1.0) for f, (lo, hi) in zip(normalized, ranges))
    if high_mean <= low_mean:
        solved = 0.0
    else:
        solved = min(1.0, max(0.0, (mean_pages - low_mean) / (high_mean - low_mean)))
    return SizeModel(normalized, tuple(ranges), solved)


def calibrate(frac_4k: float, mean_pages: float, max_pages: int) -> SizeModel:
    """Build a model with a given 4 KB share and analytic mean.

    The non-4K mass is spread geometrically (ratio ``r``) over the remaining
    buckets.  ``r`` is solved by bisection at a fixed within-bucket spread;
    when the target mean is outside that range, ``r`` is clamped and the
    spread is solved instead.  The result's :attr:`SizeModel.mean_pages` is
    exact whenever the target is achievable at all given ``frac_4k`` and
    ``max_pages``.
    """
    if not 0.0 <= frac_4k < 1.0:
        raise ValueError(f"frac_4k must be in [0, 1), got {frac_4k}")
    if mean_pages < 1.0:
        raise ValueError(f"mean_pages must be >= 1, got {mean_pages}")
    max_pages = max(2, int(max_pages))
    ranges = _bucket_ranges(max_pages)
    tail_buckets = len(ranges) - 1
    if tail_buckets == 0:
        return SizeModel((1.0,), tuple(ranges), 0.0)

    def fractions_for(ratio: float) -> Tuple[float, ...]:
        """Bucket masses for a geometric tail with the given decay ratio."""
        weights = [ratio**index for index in range(tail_buckets)]
        scale = (1.0 - frac_4k) / sum(weights)
        return (frac_4k,) + tuple(weight * scale for weight in weights)

    def mean_for(ratio: float, spread: float) -> float:
        """Analytic mean (pages) of the candidate distribution."""
        fractions = fractions_for(ratio)
        return sum(
            fraction * _bucket_mean(low, high, spread)
            for fraction, (low, high) in zip(fractions, ranges)
        )

    ratio_low, ratio_high = 1e-3, 50.0
    if mean_for(ratio_low, _DEFAULT_SPREAD) >= mean_pages:
        # Even the thinnest tail overshoots: keep the thin tail, lower spread.
        return from_histogram(fractions_for(ratio_low), max_pages, mean_pages)
    if mean_for(ratio_high, _DEFAULT_SPREAD) <= mean_pages:
        # Even the fattest tail undershoots: keep it, raise spread.
        return from_histogram(fractions_for(ratio_high), max_pages, mean_pages)
    for _ in range(80):
        ratio_mid = (ratio_low + ratio_high) / 2.0
        if mean_for(ratio_mid, _DEFAULT_SPREAD) < mean_pages:
            ratio_low = ratio_mid
        else:
            ratio_high = ratio_mid
    return from_histogram(fractions_for(ratio_high), max_pages, mean_pages)
