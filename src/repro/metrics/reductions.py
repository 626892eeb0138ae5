"""Order-preserving float reduction state for the metric states.

Bit-identity is the whole game.  A metric's float sums are the strict
left-to-right fold of :func:`~repro.trace.sequential_sum` (the builtin
``sum`` the scalar oracles use) and the experiment digests pin those
last-ulp roundings.  A streaming metric state must finalize to *exactly*
the same bits no matter how the request stream was chunked or sharded,
which float addition makes non-trivial: an already-rounded partial sum of a *mid-stream* segment
cannot be merged exactly, because the fold's intermediate roundings
depend on the running value it started from.

:class:`OrderedSum` therefore keeps its state in one of two forms:

* **deferred** (default): the contributions are kept as an ordered list
  of value segments; ``merge`` concatenates segment lists and
  ``total()`` performs the one left-to-right fold over the
  concatenation.  Exact under any merge tree (associative), at the cost
  of retaining the reduced values (still far below ``Request``-object
  footprints -- the summed quantities are one f64 per contributing row).
* **collapsed** (``collapse=True``): only the running fold value is
  kept, O(1) memory.  ``update`` continues the fold exactly by
  prepending the carry to the incoming chunk before
  ``np.add.accumulate`` (the first partial is the carry itself, so the
  accumulation continues precisely where it stopped).  A collapsed sum
  is the *left* end of the stream by construction: it can absorb a
  deferred right operand, but nothing can be merged onto its left, and
  two collapsed sums cannot be merged at all (that would require
  re-rounding history neither side kept).

The sequential out-of-core engine (``store stats``) uses collapsed sums;
shard-and-merge engines (the experiment runner) use deferred ones.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.trace import TraceColumns, sequential_sum


def chunked(columns: TraceColumns, chunk_rows: int) -> Iterator[TraceColumns]:
    """Slice an in-memory column set into zero-copy row chunks."""
    if chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive")
    total = len(columns)
    for start in range(0, total, chunk_rows):
        yield columns.select(slice(start, min(start + chunk_rows, total)))


class OrderedSum:
    """Mergeable left-to-right float sum, bit-identical to ``sequential_sum``.

    See the module docstring for the deferred/collapsed forms.  ``count``
    tracks how many values have contributed (handy for means).
    """

    __slots__ = ("_segments", "_carry", "count", "collapse")

    def __init__(self, collapse: bool = False) -> None:
        self.collapse = bool(collapse)
        self._segments: List[np.ndarray] = []
        self._carry: Optional[float] = None
        self.count = 0

    def update(self, values: np.ndarray) -> None:
        """Fold the next (in stream order) batch of values in."""
        array = np.asarray(values, dtype=np.float64)
        if array.ndim != 1:
            array = array.reshape(-1)
        if array.size == 0:
            return
        self.count += int(array.size)
        if not self.collapse:
            self._segments.append(array)
            return
        if self._carry is not None:
            array = np.concatenate((np.array([self._carry], dtype=np.float64), array))
        # accumulate() is a strict left-to-right fold; with the previous
        # carry as element 0 it continues the exact rounding sequence.
        self._carry = float(np.add.accumulate(array, dtype=np.float64)[-1])

    def merge(self, other: "OrderedSum") -> None:
        """Absorb ``other``, which must cover the stream segment that
        immediately follows this one.

        ``other`` must be deferred; a collapsed right operand has already
        rounded its fold from zero and cannot be continued exactly.
        """
        if other.collapse:
            raise ValueError(
                "cannot merge a collapsed OrderedSum as the right operand; "
                "collapsed sums must be the head of the stream"
            )
        if not self.collapse:
            self._segments.extend(other._segments)
            self.count += other.count
            return
        for segment in other._segments:
            self.update(segment)

    def total(self) -> float:
        """The fold's value so far (0.0 before any update, like ``sum([])``)."""
        if self.collapse:
            return 0.0 if self._carry is None else self._carry
        if not self._segments:
            return 0.0
        if len(self._segments) == 1:
            return sequential_sum(self._segments[0])
        return sequential_sum(np.concatenate(self._segments))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "collapsed" if self.collapse else f"deferred[{len(self._segments)}]"
        return f"OrderedSum({kind}, count={self.count})"
