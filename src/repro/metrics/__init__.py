"""Unified metric layer: one definition per statistic, three engines.

Every statistic the paper reports -- the Table III/IV rows, the
Figs. 4-6 histograms, the localities, the trace-derived Fig. 3 curve --
is declared exactly once as a :class:`~repro.metrics.base.Metric`: a
mergeable streaming state whose ``finalize`` is bit-identical under any
chunking and any contiguous shard split, so the batch engine is simply
the one-chunk fold (see :mod:`repro.metrics.base` for the contract and
:mod:`repro.metrics.reductions` for the float-fold machinery).

:mod:`repro.analysis` (whole-trace convenience functions) is a thin
adapter over this package; the registry (:mod:`repro.metrics.registry`)
is the single namespace every engine -- the CLI, the out-of-core store
path, the parallel experiment runner -- resolves metrics from.
"""

from .base import ENGINES, Metric
from .driver import MetricSetState, batch_values, fold_chunks
from .histograms import (
    HistogramState,
    INTERARRIVAL_DISTRIBUTION,
    InterarrivalDistributionMetric,
    InterarrivalHistogramState,
    RESPONSE_DISTRIBUTION,
    ResponseDistributionMetric,
    ResponseHistogramState,
    SIZE_DISTRIBUTION,
    SizeDistributionMetric,
    SizeHistogramState,
)
from .locality import (
    LOCALITIES,
    Localities,
    LocalitiesMetric,
    LocalitiesState,
    SPATIAL_LOCALITY,
    SpatialLocalityMetric,
    SpatialLocalityState,
    TEMPORAL_LOCALITY,
    TemporalLocalityMetric,
    TemporalLocalityState,
)
from .reductions import OrderedSum, chunked
from .registry import (
    REGISTRY,
    SUMMARY_METRIC_NAMES,
    all_metrics,
    get_metric,
    metric_names,
    register,
    summary_metrics,
)
from .size import SIZE_STATS, SizeStats, SizeStatsMetric, SizeStatsState
from .throughput import (
    THROUGHPUT_BY_SIZE_READ,
    THROUGHPUT_BY_SIZE_WRITE,
    ThroughputBySizeMetric,
    ThroughputBySizeState,
)
from .timing import (
    NO_WAIT_TOLERANCE_US,
    NoWaitState,
    TIMING_STATS,
    TimingStats,
    TimingStatsMetric,
    TimingStatsState,
)

__all__ = [
    "ENGINES",
    "Metric",
    "MetricSetState",
    "batch_values",
    "fold_chunks",
    "OrderedSum",
    "chunked",
    "REGISTRY",
    "SUMMARY_METRIC_NAMES",
    "all_metrics",
    "get_metric",
    "metric_names",
    "register",
    "summary_metrics",
    # size
    "SIZE_STATS",
    "SizeStats",
    "SizeStatsMetric",
    "SizeStatsState",
    # timing
    "NO_WAIT_TOLERANCE_US",
    "NoWaitState",
    "TIMING_STATS",
    "TimingStats",
    "TimingStatsMetric",
    "TimingStatsState",
    # locality
    "LOCALITIES",
    "Localities",
    "LocalitiesMetric",
    "LocalitiesState",
    "SPATIAL_LOCALITY",
    "SpatialLocalityMetric",
    "SpatialLocalityState",
    "TEMPORAL_LOCALITY",
    "TemporalLocalityMetric",
    "TemporalLocalityState",
    # histograms
    "HistogramState",
    "SizeHistogramState",
    "ResponseHistogramState",
    "InterarrivalHistogramState",
    "SIZE_DISTRIBUTION",
    "SizeDistributionMetric",
    "RESPONSE_DISTRIBUTION",
    "ResponseDistributionMetric",
    "INTERARRIVAL_DISTRIBUTION",
    "InterarrivalDistributionMetric",
    # throughput
    "THROUGHPUT_BY_SIZE_READ",
    "THROUGHPUT_BY_SIZE_WRITE",
    "ThroughputBySizeMetric",
    "ThroughputBySizeState",
]
