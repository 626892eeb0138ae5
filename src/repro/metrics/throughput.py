"""Per-size average access rate metric (the trace-derived Fig. 3).

The state keeps one :class:`~repro.metrics.reductions.OrderedSum` of
the eligible requests' ``size / response`` rates per size class.
Chunking preserves stream order and each class's rates land in its sum
in that same order, so every per-size mean is the in-order
:func:`~repro.trace.sequential_sum` of the class's rates, bit for bit,
under any chunking.  Several traces pool (the paper's Fig. 3 averages
over all 18) by folding their columns one after another.

The device-side Fig. 3 measurement (sweeping synthetic back-to-back
requests on an :class:`~repro.emmc.device.EmmcDevice`) is *not* a trace
metric and stays in :mod:`repro.analysis.throughput`.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.trace import Op, OP_WRITE, TraceColumns

from .base import Metric
from .reductions import OrderedSum


class ThroughputBySizeState:
    """Single-pass, mergeable per-size mean access rates.

    One instance covers one operation type (read or write) over one
    request stream.  ``collapse=True`` keeps each per-size sum O(1) for
    sequential out-of-core consumption; the default deferred form is
    mergeable across contiguous shard splits.
    """

    __slots__ = ("op_code", "collapse", "_sums")

    def __init__(self, op: Op, collapse: bool = False) -> None:
        self.op_code = OP_WRITE if op is Op.WRITE else 0
        self.collapse = bool(collapse)
        self._sums: Dict[int, OrderedSum] = {}

    def update(self, chunk: TraceColumns) -> None:
        """Fold the next chunk (in stream order) in."""
        if len(chunk) == 0:
            return
        response = chunk.response_us
        # NaN response times (incomplete requests) are excluded by the
        # completed mask; silence the comparison warning.
        with np.errstate(invalid="ignore"):
            eligible = (
                (chunk.op == self.op_code) & chunk.completed_mask & (response > 0)
            )
        if not eligible.any():
            return
        sizes = chunk.size[eligible]
        rates = sizes / response[eligible]
        for size in np.unique(sizes):
            key = int(size)
            ordered = self._sums.get(key)
            if ordered is None:
                ordered = self._sums[key] = OrderedSum(collapse=self.collapse)
            ordered.update(rates[sizes == size])

    def merge(self, other: "ThroughputBySizeState") -> None:
        """Absorb the summary of the stream segment following this one."""
        if other.op_code != self.op_code:
            raise ValueError("cannot merge throughput summaries of different ops")
        for key, ordered in other._sums.items():
            mine = self._sums.get(key)
            if mine is None:
                self._sums[key] = mine = OrderedSum(collapse=self.collapse)
            mine.merge(ordered)

    def finalize(self) -> Dict[int, float]:
        """Per-size mean rates (MB/s), in ascending size order."""
        return {
            size: self._sums[size].total() / self._sums[size].count
            for size in sorted(self._sums)
        }


class ThroughputBySizeMetric(Metric):
    """Average access rate per request size for one operation type.

    Two registered instances exist -- one per ``Op`` -- because a metric
    definition is a closed statistic: registry consumers must be able to
    run it without passing extra parameters.
    """

    value_doc = "{size bytes: mean MB/s} of completed requests (Fig. 3, trace-derived)"
    carry_fields = ()  # per-size OrderedSums carry stream order internally

    def __init__(self, op: Op) -> None:
        self.op = op
        suffix = "write" if op is Op.WRITE else "read"
        self.name = f"throughput_by_size_{suffix}"

    def init(self, collapse: bool = False) -> ThroughputBySizeState:
        return ThroughputBySizeState(self.op, collapse=collapse)

    def finalize(self, state: ThroughputBySizeState, name: str = "") -> Dict[int, float]:
        del name
        return state.finalize()


#: The registered singletons (see :mod:`repro.metrics.registry`).
THROUGHPUT_BY_SIZE_READ = ThroughputBySizeMetric(Op.READ)
THROUGHPUT_BY_SIZE_WRITE = ThroughputBySizeMetric(Op.WRITE)
