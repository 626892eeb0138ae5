"""Generic execution drivers: fold any metric set with any engine.

Everything downstream of the registry is one of three call shapes:

* :func:`batch_values` -- each metric's value over one in-memory column
  set, folded as a single chunk (the batch engine);
* :class:`MetricSetState` -- one ``update``/``merge``/``finalize`` state
  bundling a metric set, for the sharded and out-of-core engines;
* :func:`fold_chunks` -- the sequential out-of-core loop in one call.

The ``stats``/``store stats`` commands and ``tools/metrics_parity.py``
are thin wrappers over these.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Sequence

from repro.trace import TraceColumns

from .base import Metric


def batch_values(
    metrics: Sequence[Metric], columns: TraceColumns, name: str = ""
) -> Dict[str, Any]:
    """Each metric's batch-engine value, keyed by registry name."""
    return {metric.name: metric.batch(columns, name) for metric in metrics}


class MetricSetState:
    """One streaming state per metric in a set, folded together.

    The chunk-boundary carry of each metric lives inside its own state
    object; this class only fans ``update``/``merge`` out and gathers
    ``finalize`` back into a name-keyed dict.
    """

    __slots__ = ("metrics", "states")

    def __init__(self, metrics: Sequence[Metric], collapse: bool = False) -> None:
        self.metrics = tuple(metrics)
        self.states = {m.name: m.init(collapse=collapse) for m in self.metrics}

    def update(self, chunk: TraceColumns) -> None:
        """Fold the next chunk (in stream order) into every metric."""
        for metric in self.metrics:
            metric.update(self.states[metric.name], chunk)

    def merge(self, other: "MetricSetState") -> None:
        """Absorb the states of the stream segment following this one."""
        if other.metrics != self.metrics:
            raise ValueError("cannot merge states over different metric sets")
        for metric in self.metrics:
            metric.merge(self.states[metric.name], other.states[metric.name])

    def finalize(self, name: str = "") -> Dict[str, Any]:
        """Each metric's exact batch-engine value, keyed by registry name."""
        return {
            metric.name: metric.finalize(self.states[metric.name], name)
            for metric in self.metrics
        }


def fold_chunks(
    metrics: Sequence[Metric],
    chunks: Iterable[TraceColumns],
    name: str = "",
    collapse: bool = True,
) -> Dict[str, Any]:
    """The out-of-core engine over a metric set, in one call."""
    state = MetricSetState(metrics, collapse=collapse)
    for chunk in chunks:
        state.update(chunk)
    return state.finalize(name)
