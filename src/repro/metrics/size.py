"""The Table III (size-related) metric: one definition, every engine.

Every Table III column reduces to integer sums and counts over the
``size``/``op`` columns, so the streaming state is a handful of Python
ints -- exact under any chunking and any merge order -- and only
``finalize`` does float arithmetic: the final scalar divisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace import KIB, TraceColumns

from .base import Metric


@dataclass(frozen=True)
class SizeStats:
    """The measured counterpart of one Table III row."""

    name: str
    data_size_kib: float
    num_requests: int
    max_size_kib: float
    avg_size_kib: float
    avg_read_kib: float
    avg_write_kib: float
    write_req_pct: float
    write_size_pct: float


class SizeStatsState:
    """Single-pass, mergeable state of one Table III row."""

    __slots__ = ("total_requests", "total_bytes", "written_bytes", "num_writes",
                 "max_size")

    def __init__(self) -> None:
        self.total_requests = 0
        self.total_bytes = 0
        self.written_bytes = 0
        self.num_writes = 0
        self.max_size = 0

    def update(self, chunk: TraceColumns) -> None:
        """Fold the next chunk in (order does not matter -- all integers)."""
        rows = len(chunk)
        if rows == 0:
            return
        size = chunk.size
        write_mask = chunk.write_mask
        self.total_requests += rows
        self.total_bytes += int(size.sum())
        self.written_bytes += int(size[write_mask].sum())
        self.num_writes += int(np.count_nonzero(write_mask))
        self.max_size = max(self.max_size, int(size.max()))

    def merge(self, other: "SizeStatsState") -> None:
        """Absorb another segment's summary (associative, commutative)."""
        self.total_requests += other.total_requests
        self.total_bytes += other.total_bytes
        self.written_bytes += other.written_bytes
        self.num_writes += other.num_writes
        self.max_size = max(self.max_size, other.max_size)

    def finalize(self, name: str) -> SizeStats:
        """The final per-column divisions.

        Averages over an empty class (e.g. a trace with no reads) are
        reported as 0, mirroring how a column would be blank in the
        paper's table.
        """
        total_requests = self.total_requests
        if total_requests == 0:
            return SizeStats(name, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        total = self.total_bytes
        written = self.written_bytes
        num_writes = self.num_writes
        num_reads = total_requests - num_writes
        read_total = total - written
        return SizeStats(
            name=name,
            data_size_kib=total / KIB,
            num_requests=total_requests,
            max_size_kib=self.max_size / KIB,
            avg_size_kib=total / total_requests / KIB,
            avg_read_kib=(read_total / num_reads / KIB) if num_reads else 0.0,
            avg_write_kib=(written / num_writes / KIB) if num_writes else 0.0,
            write_req_pct=100.0 * num_writes / total_requests,
            write_size_pct=100.0 * written / total if total else 0.0,
        )


class SizeStatsMetric(Metric):
    """Every Table III column for one request stream."""

    name = "size_stats"
    value_doc = "SizeStats: the Table III columns (sizes, counts, write shares)"
    carry_fields = ()  # integer sums/counts: order-insensitive

    def init(self, collapse: bool = False) -> SizeStatsState:
        del collapse  # no float folds: one state form serves both engines
        return SizeStatsState()

    def finalize(self, state: SizeStatsState, name: str = "") -> SizeStats:
        return state.finalize(name)


#: The registered singleton (see :mod:`repro.metrics.registry`).
SIZE_STATS = SizeStatsMetric()
