"""Scalar reference oracles: one request-loop twin per metric.

The production kernels live once in :mod:`repro.metrics` (and thin
adapters in :mod:`repro.analysis`); these per-request/per-value loop
implementations are the independent second opinion the bit-identity
tests compare against.  They are deliberately naive -- builtin ``sum``,
Python sets, nested loops -- so a vectorization bug in the kernels
cannot be mirrored here.

Kept in ``tests/`` only: production code must never import an oracle.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

import numpy as np

from repro.analysis.correlation import SizeResponseCorrelation, _safe_corrcoef
from repro.analysis.locality import Localities
from repro.analysis.percentiles import DEFAULT_PERCENTILES, _percentiles
from repro.analysis.size_stats import SizeStats
from repro.analysis.timing_stats import TimingStats
from repro.trace import KIB, Op, Request, SECTOR, Trace, US_PER_MS
from repro.metrics.buckets import (
    Bucket,
    INTERARRIVAL_BUCKETS_MS,
    RESPONSE_BUCKETS_MS,
    SIZE_BUCKETS,
)
from repro.workloads.sizes import SizeModel


# -- histogram binning (repro.metrics.buckets.histogram) ----------------------


def _reference_histogram(
    values: Sequence[float], buckets: Sequence[Bucket]
) -> Dict[str, float]:
    """Per-value loop twin of ``buckets.histogram`` (first match wins)."""
    counts = {bucket.label: 0 for bucket in buckets}
    for value in values:
        for bucket in buckets:
            if bucket.contains(value):
                counts[bucket.label] += 1
                break
    total = len(values)
    if total == 0:
        return {label: 0.0 for label in counts}
    return {label: count / total for label, count in counts.items()}


# -- size_stats ----------------------------------------------------------------


def _reference_size_stats(trace: Trace) -> SizeStats:
    """Request-loop twin of the ``size_stats`` metric (Table III)."""
    if len(trace) == 0:
        return SizeStats(trace.name, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    sizes = [request.size for request in trace]
    read_sizes = [request.size for request in trace if request.is_read]
    write_sizes = [request.size for request in trace if request.is_write]
    total = sum(sizes)
    written = sum(write_sizes)
    return SizeStats(
        name=trace.name,
        data_size_kib=total / KIB,
        num_requests=len(trace),
        max_size_kib=max(sizes) / KIB,
        avg_size_kib=total / len(sizes) / KIB,
        avg_read_kib=(sum(read_sizes) / len(read_sizes) / KIB) if read_sizes else 0.0,
        avg_write_kib=(written / len(write_sizes) / KIB) if write_sizes else 0.0,
        write_req_pct=100.0 * len(write_sizes) / len(sizes),
        write_size_pct=100.0 * written / total if total else 0.0,
    )


# -- localities ----------------------------------------------------------------


def _reference_spatial_locality(trace: Trace) -> float:
    """Request-loop twin of the ``spatial_locality`` metric."""
    if len(trace) == 0:
        return 0.0
    sequential = sum(
        1
        for previous, current in zip(trace.requests, trace.requests[1:])
        if current.lba == previous.end_lba
    )
    return sequential / len(trace)


def _reference_temporal_locality(trace: Trace) -> float:
    """Request-loop twin of the ``temporal_locality`` metric."""
    if len(trace) == 0:
        return 0.0
    seen: Set[int] = set()
    hits = 0
    for request in trace:
        if request.lba in seen:
            hits += 1
        seen.add(request.lba)
    return hits / len(trace)


def _reference_measure(trace: Trace) -> Localities:
    """Both locality oracles in one object (the ``localities`` metric)."""
    return Localities(
        spatial=_reference_spatial_locality(trace),
        temporal=_reference_temporal_locality(trace),
    )


# -- timing_stats --------------------------------------------------------------


def _reference_timing_stats(trace: Trace) -> TimingStats:
    """Request-loop twin of the ``timing_stats`` metric (Table IV)."""
    localities = _reference_measure(trace)
    completed = [request for request in trace if request.completed]
    arrivals = [r.arrival_us for r in trace.requests]
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    mean_gap_ms = (sum(gaps) / len(gaps) / US_PER_MS) if gaps else 0.0
    if completed:
        nowait_pct = 100.0 * sum(1 for r in completed if r.no_wait) / len(completed)
        mean_service_ms = sum(r.service_us for r in completed) / len(completed) / US_PER_MS
        mean_response_ms = sum(r.response_us for r in completed) / len(completed) / US_PER_MS
    else:
        nowait_pct = mean_service_ms = mean_response_ms = 0.0
    return TimingStats(
        name=trace.name,
        duration_s=trace.duration_s,
        arrival_rate=trace.arrival_rate(),
        access_rate_kib_s=trace.access_rate_kib_s(),
        nowait_pct=nowait_pct,
        mean_service_ms=mean_service_ms,
        mean_response_ms=mean_response_ms,
        spatial_locality_pct=localities.spatial_pct,
        temporal_locality_pct=localities.temporal_pct,
        mean_interarrival_ms=mean_gap_ms,
    )


# -- bucketed distributions ----------------------------------------------------


def _reference_size_distribution(trace: Trace) -> Dict[str, float]:
    """Request-loop twin of the ``size_distribution`` metric (Fig. 4)."""
    return _reference_histogram([request.size for request in trace], SIZE_BUCKETS)


def _reference_response_distribution(trace: Trace) -> Dict[str, float]:
    """Request-loop twin of the ``response_distribution`` metric (Fig. 5)."""
    values = [
        request.response_us / US_PER_MS for request in trace if request.completed
    ]
    return _reference_histogram(values, RESPONSE_BUCKETS_MS)


def _reference_interarrival_distribution(trace: Trace) -> Dict[str, float]:
    """Request-loop twin of the ``interarrival_distribution`` metric (Fig. 6)."""
    arrivals = [r.arrival_us for r in trace.requests]
    values = [(b - a) / US_PER_MS for a, b in zip(arrivals, arrivals[1:])]
    return _reference_histogram(values, INTERARRIVAL_BUCKETS_MS)


def _reference_long_gap_share(trace: Trace, threshold_ms: float = 16.0) -> float:
    """Request-loop twin of ``long_gap_share`` (Characteristic 6)."""
    arrivals = [r.arrival_us for r in trace.requests]
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    if not gaps:
        return 0.0
    return sum(1 for gap in gaps if gap > threshold_ms * US_PER_MS) / len(gaps)


# -- throughput by size --------------------------------------------------------


def _reference_trace_throughput_by_size(traces, op: Op) -> Dict[int, float]:
    """Request-loop twin of the per-op ``throughput_by_size_*`` metrics."""
    sums: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for trace in traces:
        for request in trace:
            if request.op is not op or not request.completed:
                continue
            if request.response_us <= 0:
                continue
            rate = request.size / request.response_us  # bytes/us == MB/s
            sums[request.size] = sums.get(request.size, 0.0) + rate
            counts[request.size] = counts.get(request.size, 0) + 1
    return {size: sums[size] / counts[size] for size in sorted(sums)}


# -- percentiles ---------------------------------------------------------------


def _reference_response_percentiles_ms(
    trace: Trace, percentiles: Sequence[float] = DEFAULT_PERCENTILES
) -> Dict[float, float]:
    """Request-loop twin of ``response_percentiles_ms``."""
    values = [r.response_us for r in trace if r.completed]
    return _percentiles(values, percentiles)


def _reference_service_percentiles_ms(
    trace: Trace, percentiles: Sequence[float] = DEFAULT_PERCENTILES
) -> Dict[float, float]:
    """Request-loop twin of ``service_percentiles_ms``."""
    values = [r.service_us for r in trace if r.completed]
    return _percentiles(values, percentiles)


# -- rank correlation ----------------------------------------------------------


def _reference_rank(values: np.ndarray) -> np.ndarray:
    """Tie-loop twin of ``correlation._rank``."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.arange(len(values), dtype=np.float64)
    # Average ranks within tie groups.
    sorted_values = values[order]
    start = 0
    for index in range(1, len(values) + 1):
        if index == len(values) or sorted_values[index] != sorted_values[start]:
            ranks[order[start:index]] = (start + index - 1) / 2.0
            start = index
    return ranks


def _reference_size_response_correlation(
    trace: Trace, use_service: bool = False
) -> SizeResponseCorrelation:
    """Request-loop twin of ``size_response_correlation``."""
    completed = [r for r in trace if r.completed]
    sizes = np.array([r.size for r in completed], dtype=np.float64)
    responses = np.array(
        [r.service_us if use_service else r.response_us for r in completed],
        dtype=np.float64,
    )
    if len(completed) < 2:
        return SizeResponseCorrelation(trace.name, 0.0, 0.0, len(completed))
    spearman = _safe_corrcoef(_reference_rank(sizes), _reference_rank(responses))
    pearson = _safe_corrcoef(sizes, responses)
    return SizeResponseCorrelation(
        name=trace.name, spearman=spearman, pearson=pearson, samples=len(completed)
    )


# -- size sampling (repro.workloads.sizes.SizeModel.sample) --------------------


def _reference_sample(model: SizeModel, rng: np.random.Generator) -> int:
    """Original ``rng.choice``-based draw (oracle for ``SizeModel.sample``)."""
    bucket = int(rng.choice(len(model.fractions), p=list(model.fractions)))
    low, high = model.ranges[bucket]
    if high <= low or rng.random() >= model.spread:
        return low
    return int(rng.integers(low + 1, high + 1))


# -- trace scaling (repro.workloads.scaling) -----------------------------------


def _reference_scale_rate(trace: Trace, factor: float) -> Trace:
    """The original request-at-a-time ``scale_rate``."""
    if factor <= 0:
        raise ValueError("rate factor must be positive")
    return Trace(
        name=f"{trace.name}[x{factor:g}]",
        requests=[
            Request(
                arrival_us=request.arrival_us / factor,
                lba=request.lba,
                size=request.size,
                op=request.op,
            )
            for request in trace
        ],
        metadata={**trace.metadata, "rate_factor": f"{factor:g}"},
    )


def _reference_scale_sizes(
    trace: Trace, factor: float, max_bytes: int = 16 * 1024 * 1024
) -> Trace:
    """The original request-at-a-time ``scale_sizes``."""
    if factor <= 0:
        raise ValueError("size factor must be positive")
    requests = []
    for request in trace:
        pages = max(1, round(request.pages * factor))
        size = min(pages * SECTOR, max_bytes - max_bytes % SECTOR)
        requests.append(
            Request(
                arrival_us=request.arrival_us,
                lba=request.lba,
                size=size,
                op=request.op,
            )
        )
    return Trace(
        name=f"{trace.name}[size x{factor:g}]",
        requests=requests,
        metadata={**trace.metadata, "size_factor": f"{factor:g}"},
    )
