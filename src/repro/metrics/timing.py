"""The Table IV (timing-related) metric: one definition, every engine.

The streaming state folds one trace's request stream, chunk by chunk,
into its :class:`TimingStats`:

* integer state (request/completed/no-wait counts, byte totals,
  localities) is exact in any order;
* boundary state (first/last arrival, the predecessor's ``end_lba``, the
  distinct-LBA set) crosses chunk and shard boundaries explicitly;
* float reductions (inter-arrival gaps, service and response times) run
  through :class:`~repro.metrics.reductions.OrderedSum`, so the means
  are the whole stream's left-to-right ``sequential_sum`` bit for bit
  under any chunking -- including the chunk-crossing arrival gap, which
  is folded in at exactly its stream position.

``finalize`` keeps the scalar expressions of the paper's definitions
(guards, division order, the ``* 100.0`` placements) that the scalar
oracles in ``tests/analysis/oracles.py`` use, because with IEEE floats
``(100.0 * a) / b`` and ``100.0 * (a / b)`` are different roundings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.trace import TraceColumns, US_PER_MS, US_PER_S

from .base import Metric
from .locality import LocalitiesState
from .reductions import OrderedSum

#: The ``Request.no_wait`` tolerance (absorbs event-engine round-off).
NO_WAIT_TOLERANCE_US = 1e-6


@dataclass(frozen=True)
class TimingStats:
    """The measured counterpart of one Table IV row."""

    name: str
    duration_s: float
    arrival_rate: float
    access_rate_kib_s: float
    nowait_pct: float
    mean_service_ms: float
    mean_response_ms: float
    spatial_locality_pct: float
    temporal_locality_pct: float
    mean_interarrival_ms: float


class NoWaitState:
    """Single-pass, mergeable *NoWait Req. Ratio* (Table IV)."""

    __slots__ = ("completed", "no_wait")

    def __init__(self) -> None:
        self.completed = 0
        self.no_wait = 0

    def update(self, chunk: TraceColumns) -> None:
        """Fold the next chunk in (integer counts -- any order)."""
        completed_mask = chunk.completed_mask
        count = int(np.count_nonzero(completed_mask))
        if not count:
            return
        self.completed += count
        wait = chunk.wait_us[completed_mask]
        self.no_wait += int(np.count_nonzero(wait <= NO_WAIT_TOLERANCE_US))

    def merge(self, other: "NoWaitState") -> None:
        self.completed += other.completed
        self.no_wait += other.no_wait

    def finalize(self) -> float:
        """No-wait percentage of the completed requests."""
        if not self.completed:
            return 0.0
        return 100.0 * self.no_wait / self.completed


class TimingStatsState:
    """Single-pass, mergeable state of one Table IV row.

    ``collapse=True`` keeps the float folds O(1) (sequential out-of-core
    consumption); the default deferred form is mergeable under any
    contiguous shard split.
    """

    __slots__ = (
        "total_requests",
        "total_bytes",
        "first_arrival_us",
        "last_arrival_us",
        "max_complete_us",
        "nowait",
        "gap_sum",
        "service_sum",
        "response_sum",
        "localities",
    )

    def __init__(self, collapse: bool = False) -> None:
        self.total_requests = 0
        self.total_bytes = 0
        self.first_arrival_us: Optional[float] = None
        self.last_arrival_us: Optional[float] = None
        self.max_complete_us: Optional[float] = None
        self.nowait = NoWaitState()
        self.gap_sum = OrderedSum(collapse=collapse)
        self.service_sum = OrderedSum(collapse=collapse)
        self.response_sum = OrderedSum(collapse=collapse)
        self.localities = LocalitiesState()

    def update(self, chunk: TraceColumns) -> None:
        """Fold the next chunk (in stream order) in."""
        rows = len(chunk)
        if rows == 0:
            return
        arrivals = chunk.arrival_us
        # Inter-arrival gaps, including the one crossing from the previous
        # chunk -- the same ``x[k+1] - x[k]`` subtraction np.diff performs.
        internal = np.diff(arrivals) if rows > 1 else np.empty(0, dtype=np.float64)
        if self.last_arrival_us is not None:
            crossing = np.array(
                [float(arrivals[0]) - self.last_arrival_us], dtype=np.float64
            )
            self.gap_sum.update(np.concatenate((crossing, internal)))
        else:
            self.gap_sum.update(internal)
        if self.first_arrival_us is None:
            self.first_arrival_us = float(arrivals[0])
        self.last_arrival_us = float(arrivals[-1])

        completed_mask = chunk.completed_mask
        if completed_mask.any():
            self.service_sum.update(chunk.service_us[completed_mask])
            self.response_sum.update(chunk.response_us[completed_mask])
            chunk_max = float(chunk.complete_us[completed_mask].max())
            if self.max_complete_us is None or chunk_max > self.max_complete_us:
                self.max_complete_us = chunk_max
        self.nowait.update(chunk)
        self.localities.update(chunk)
        self.total_requests += rows
        self.total_bytes += int(chunk.size.sum())

    def merge(self, other: "TimingStatsState") -> None:
        """Absorb the summary of the stream segment following this one."""
        if other.total_requests == 0:
            return
        if self.total_requests:
            # The gap straddling the shard boundary belongs to neither
            # side's internal diffs; fold it in at its stream position.
            assert other.first_arrival_us is not None
            assert self.last_arrival_us is not None
            self.gap_sum.update(
                np.array(
                    [other.first_arrival_us - self.last_arrival_us], dtype=np.float64
                )
            )
            self.last_arrival_us = other.last_arrival_us
        else:
            self.first_arrival_us = other.first_arrival_us
            self.last_arrival_us = other.last_arrival_us
        self.gap_sum.merge(other.gap_sum)
        self.service_sum.merge(other.service_sum)
        self.response_sum.merge(other.response_sum)
        if other.max_complete_us is not None and (
            self.max_complete_us is None
            or other.max_complete_us > self.max_complete_us
        ):
            self.max_complete_us = other.max_complete_us
        self.nowait.merge(other.nowait)
        self.localities.merge(other.localities)
        self.total_requests += other.total_requests
        self.total_bytes += other.total_bytes

    def finalize(self, name: str) -> TimingStats:
        """The Table IV row of the folded stream."""
        localities = self.localities.finalize()
        if self.total_requests == 0:
            return TimingStats(name, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                               localities.spatial_pct, localities.temporal_pct, 0.0)
        assert self.first_arrival_us is not None
        assert self.last_arrival_us is not None
        start_us = self.first_arrival_us
        if self.max_complete_us is None:
            end_us = self.last_arrival_us
        else:
            end_us = max(self.last_arrival_us, self.max_complete_us)
        duration_us = end_us - start_us
        duration_s = duration_us / US_PER_S
        if duration_us <= 0:
            arrival_rate = 0.0
            access_rate_kib_s = 0.0
        else:
            arrival_rate = self.total_requests / duration_s
            access_rate_kib_s = self.total_bytes / 1024.0 / duration_s
        num_gaps = self.gap_sum.count
        mean_gap_ms = (
            (self.gap_sum.total() / num_gaps / US_PER_MS) if num_gaps else 0.0
        )
        num_completed = self.nowait.completed
        if num_completed:
            nowait_pct = self.nowait.finalize()
            mean_service_ms = self.service_sum.total() / num_completed / US_PER_MS
            mean_response_ms = self.response_sum.total() / num_completed / US_PER_MS
        else:
            nowait_pct = mean_service_ms = mean_response_ms = 0.0
        return TimingStats(
            name=name,
            duration_s=duration_s,
            arrival_rate=arrival_rate,
            access_rate_kib_s=access_rate_kib_s,
            nowait_pct=nowait_pct,
            mean_service_ms=mean_service_ms,
            mean_response_ms=mean_response_ms,
            spatial_locality_pct=localities.spatial_pct,
            temporal_locality_pct=localities.temporal_pct,
            mean_interarrival_ms=mean_gap_ms,
        )

    @property
    def completed(self) -> bool:
        """True when every request seen so far carries device timestamps."""
        return self.nowait.completed == self.total_requests


class TimingStatsMetric(Metric):
    """Every Table IV column for one request stream.

    The service/response/no-wait columns need device timestamps; feed a
    stream that was replayed on an :class:`~repro.emmc.device.EmmcDevice`
    (they are reported as 0 for an un-replayed trace, like the localities
    of an empty trace).
    """

    name = "timing_stats"
    value_doc = "TimingStats: the Table IV columns (rates, latencies, localities)"
    carry_fields = (
        "first_arrival_us",
        "last_arrival_us",
        "max_complete_us",
        "first_lba",
        "last_end_lba",
        "distinct_lbas",
        "gap_sum",
        "service_sum",
        "response_sum",
    )

    def init(self, collapse: bool = False) -> TimingStatsState:
        return TimingStatsState(collapse=collapse)

    def finalize(self, state: TimingStatsState, name: str = "") -> TimingStats:
        return state.finalize(name)


#: The registered singleton (see :mod:`repro.metrics.registry`).
TIMING_STATS = TimingStatsMetric()
