"""The :class:`Metric` abstraction: one statistic, one streaming state.

A metric is declared **once** -- its name, the value it finalizes to,
and the mergeable streaming state that computes that value chunk by
chunk -- and every way of executing it drives that one state:

* **batch**: ``metric.batch(columns)`` folds one in-memory
  :class:`~repro.trace.TraceColumns` view as a single chunk.
* **sharded**: ``metric.init()`` (deferred float state) per shard,
  ``metric.update(state, chunk)`` in stream order within each shard,
  ``metric.merge(left, right)`` across adjacent shards in any tree
  shape, ``metric.finalize(state)`` at the root.  This is how the
  parallel experiment runner keeps ``--jobs N`` bit-identical.
* **out-of-core**: ``metric.fold(chunks)`` -- ``init(collapse=True)``
  plus a sequential ``update`` per memory-mapped chunk, O(1) float
  state.  This is ``repro-trace store stats``.

The exactness contract, enforced for every registered metric by
``tests/metrics/test_registry_properties.py``: ``finalize(fold(chunks))
== batch(concatenation of chunks)`` with ``==`` on floats -- the same
bits, not approximately equal -- for *any* chunking and any contiguous
shard split.  Integer state splits trivially; float folds go through
:class:`~repro.metrics.reductions.OrderedSum`; everything the stream
order feeds across a chunk boundary (previous arrival, previous
``end_lba``, the distinct-LBA set) is named in ``carry_fields`` and
carried explicitly by the state object.  The independent reference for
the values themselves is the scalar request loops in
``tests/analysis/oracles.py``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, Tuple

from repro.trace import TraceColumns

#: The execution engines every metric definition supports.
ENGINES: Tuple[str, ...] = ("batch", "sharded", "out-of-core")


class Metric(ABC):
    """One statistic: a mergeable streaming state and its final value.

    Subclasses set the declarative attributes and implement :meth:`init`
    and :meth:`finalize`; ``update`` and ``merge`` delegate to the state
    object, so one state class serves every engine.
    """

    #: Registry key, e.g. ``"size_stats"``.
    name: str = ""
    #: One-line description of the finalized value.
    value_doc: str = ""
    #: Names of the cross-chunk carry state (empty: order-insensitive
    #: integer state that needs no boundary handling).
    carry_fields: Tuple[str, ...] = ()

    # -- the one definition ---------------------------------------------------

    @abstractmethod
    def init(self, collapse: bool = False) -> Any:
        """A fresh streaming state.

        ``collapse=True`` keeps float folds O(1) for sequential
        out-of-core consumption; the default deferred form is mergeable
        across contiguous shard splits (see
        :class:`~repro.metrics.reductions.OrderedSum`).
        """

    @abstractmethod
    def finalize(self, state: Any, name: str = "") -> Any:
        """The metric's value for the stream folded into ``state``."""

    # -- generic state plumbing (shared by every metric) ----------------------

    def update(self, state: Any, chunk: TraceColumns) -> Any:
        """Fold the next chunk (in stream order) into ``state``."""
        state.update(chunk)
        return state

    def merge(self, left: Any, right: Any) -> Any:
        """Absorb ``right`` -- the summary of the stream segment that
        immediately follows ``left`` -- into ``left``."""
        left.merge(right)
        return left

    # -- the out-of-core and batch engines -------------------------------------

    def fold(
        self,
        chunks: Iterable[TraceColumns],
        name: str = "",
        collapse: bool = True,
    ) -> Any:
        """Fold an in-order chunk iterable and finalize in one call."""
        state = self.init(collapse=collapse)
        for chunk in chunks:
            self.update(state, chunk)
        return self.finalize(state, name)

    def batch(self, columns: TraceColumns, name: str = "") -> Any:
        """The value over one in-memory column set: the one-chunk fold."""
        return self.fold([columns], name)

    def __deepcopy__(self, memo) -> "Metric":
        """Metric definitions are stateless singletons: states deep-copy
        (shard workers clone them freely), the definitions never do."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Metric {self.name!r}>"
