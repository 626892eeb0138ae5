"""Trace container: a name, metadata and one arrival-ordered column set.

A trace *is* its :class:`~repro.trace.columns.TraceColumns`: the seven
arrays of the BIOtracer record (arrival, service start, finish, address,
size, access type and the timestamp flags), one row per request in
arrival order.  The analysis kernels and the replay fast path read the
columns; :attr:`Trace.requests` is a read-only tuple of
:class:`~repro.trace.record.Request` records for per-request consumers
(the event kernel, the Android stack), built from the columns once on
first use or kept from the list the constructor was given.  Nothing can
go stale: there is one set of rows, and the view of it is a tuple.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .columns import COLUMN_NAMES, FLAG_HAS_SERVICE, TraceColumns, is_arrival_sorted
from .record import Op, Request, SECTOR, US_PER_S


def _arrival_order(arrival_us: np.ndarray) -> Optional[np.ndarray]:
    """The stable arrival sort of out-of-order rows; ``None`` if in order.

    A stable ``argsort`` keeps tied arrivals in input order, as
    ``list.sort`` does.
    """
    return None if is_arrival_sorted(arrival_us) else np.argsort(arrival_us, kind="stable")


def _check_rows(columns: TraceColumns) -> None:
    """Raise the ``ValueError`` of the first row ``Request`` would reject.

    The same tests as ``Request.__post_init__``, over whole columns; the
    first failing row is then built as a ``Request``, which raises its
    own message.
    """
    arrival, service = columns.arrival_us, columns.service_start_us
    has_service = (columns.flags & FLAG_HAS_SERVICE) != 0
    bad = (
        (arrival < 0)
        | (columns.lba < 0)
        | (columns.lba % SECTOR != 0)
        | (columns.size <= 0)
        | (columns.size % SECTOR != 0)
        | (has_service & (service < arrival))
        | (columns.completed_mask & (~has_service | (columns.complete_us < service)))
    )
    rows = np.flatnonzero(bad)
    if rows.size:
        columns.select(rows[:1]).to_requests()


class Trace:
    """An ordered (by arrival time) sequence of requests plus metadata.

    The paper's 25 traces are instances of this type: 18 individual
    application traces and 7 combo traces.

    Attributes:
        name: short identifier, e.g. ``"Twitter"`` or ``"Music/WB"``.
        metadata: free-form string metadata (e.g. generator seed, profile).

    Two traces are equal when their names, metadata and columns are
    (NaN equal to NaN: a missing timestamp equals a missing timestamp),
    which is equality of their request lists.  A pickle carries the
    name, the metadata and the columns.
    """

    __slots__ = ("name", "metadata", "_columns", "_requests")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        name: str,
        requests: Iterable[Request] = (),
        metadata: Optional[Dict[str, str]] = None,
    ) -> None:
        requests = tuple(requests)
        columns = TraceColumns.from_requests(requests)
        order = _arrival_order(columns.arrival_us)
        if order is not None:
            requests = tuple(requests[index] for index in order.tolist())
            columns = columns.select(order)
        self._set(name, columns, metadata, requests)

    @classmethod
    def from_columns(
        cls,
        name: str,
        columns: TraceColumns,
        metadata: Optional[Dict[str, str]] = None,
    ) -> "Trace":
        """A trace holding ``columns``: the one column entry.

        Rows are checked as ``Request`` checks them (the first invalid
        row raises its ``ValueError``), then stably sorted by arrival if
        they are out of order.
        """
        _check_rows(columns)
        order = _arrival_order(columns.arrival_us)
        trace = cls.__new__(cls)
        trace._set(name, columns if order is None else columns.select(order), metadata, None)
        return trace

    def _set(self, name, columns, metadata, requests) -> None:
        self.name = name
        self.metadata = {} if metadata is None else metadata
        self._columns = columns
        self._requests = requests

    def columns(self) -> TraceColumns:
        """The trace's struct-of-arrays rows.  Treat the arrays as read-only."""
        return self._columns

    @property
    def requests(self) -> Tuple[Request, ...]:
        """The requests as read-only records, in arrival order."""
        if self._requests is None:
            self._requests = tuple(self._columns.to_requests())
        return self._requests

    # -- equality and pickling -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        mine, theirs = self._columns, other._columns
        return (
            self.name == other.name
            and self.metadata == other.metadata
            and len(mine) == len(theirs)
            and all(
                np.array_equal(getattr(mine, column), getattr(theirs, column), equal_nan=True)
                for column in COLUMN_NAMES
            )
        )

    def __getstate__(self):
        return self.name, self._columns, self.metadata

    def __setstate__(self, state) -> None:
        name, columns, metadata = state
        self._set(name, columns, metadata, None)

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, requests={len(self)}, metadata={self.metadata!r})"

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, index):
        return self.requests[index]

    def __bool__(self) -> bool:
        return len(self) > 0

    # -- basic aggregates ------------------------------------------------------

    @property
    def reads(self) -> List[Request]:
        """The read requests, in arrival order."""
        return [r for r in self.requests if r.is_read]

    @property
    def writes(self) -> List[Request]:
        """The write requests, in arrival order."""
        return [r for r in self.requests if r.is_write]

    @property
    def total_bytes(self) -> int:
        """Total size of data accessed (the paper's *Data Size*)."""
        return int(self._columns.size.sum())

    @property
    def written_bytes(self) -> int:
        """Total bytes written."""
        columns = self._columns
        return int(columns.size[columns.write_mask].sum())

    @property
    def read_bytes(self) -> int:
        """Total bytes read."""
        columns = self._columns
        return int(columns.size[columns.read_mask].sum())

    @property
    def start_us(self) -> float:
        """First arrival time (0 for an empty trace)."""
        return float(self._columns.arrival_us[0]) if len(self) else 0.0

    @property
    def end_us(self) -> float:
        """Last known event time (finish if replayed, else last arrival)."""
        if not len(self):
            return 0.0
        columns = self._columns
        last_arrival = float(columns.arrival_us[-1])
        completed_mask = columns.completed_mask
        if not completed_mask.any():
            return last_arrival
        return max(last_arrival, float(columns.complete_us[completed_mask].max()))

    @property
    def duration_us(self) -> float:
        """Recording duration, from first to last event."""
        return self.end_us - self.start_us

    @property
    def duration_s(self) -> float:
        """Recording duration in seconds."""
        return self.duration_us / US_PER_S

    @property
    def completed(self) -> bool:
        """True when every request carries device timestamps."""
        return bool(self._columns.completed_mask.all())

    def arrival_rate(self) -> float:
        """Requests per second over the recording duration (Table IV)."""
        if self.duration_us <= 0:
            return 0.0
        return len(self) / self.duration_s

    def access_rate_kib_s(self) -> float:
        """Data accessed (read + write) per second, in KiB/s (Table IV)."""
        if self.duration_us <= 0:
            return 0.0
        return self.total_bytes / 1024.0 / self.duration_s

    def inter_arrival_us(self) -> List[float]:
        """Successive arrival-time gaps, one per request after the first."""
        return self._columns.inter_arrival_us.tolist()

    # -- transformations -------------------------------------------------------

    def _derived(self, columns: TraceColumns, name: Optional[str] = None) -> "Trace":
        """A trace of ``columns`` with this trace's metadata (copied)."""
        return Trace.from_columns(name or self.name, columns, dict(self.metadata))

    def filter(self, predicate: Callable[[Request], bool], name: Optional[str] = None) -> "Trace":
        """Return a new trace with only requests satisfying ``predicate``."""
        keep = np.array([bool(predicate(r)) for r in self.requests], dtype=bool)
        return self._derived(self._columns.select(keep), name)

    def only(self, op: Op) -> "Trace":
        """Return the read-only or write-only sub-trace."""
        columns = self._columns
        mask = columns.write_mask if op is Op.WRITE else columns.read_mask
        return self._derived(columns.select(mask), f"{self.name}[{op.value}]")

    def window(self, start_us: float, end_us: float) -> "Trace":
        """Return requests arriving in ``[start_us, end_us)``."""
        arrival = self._columns.arrival_us
        return self._derived(self._columns.select((start_us <= arrival) & (arrival < end_us)))

    def without_timing(self) -> "Trace":
        """Strip device timestamps (e.g. before replaying on another device).

        A trace with no timed row (every freshly generated one) shares
        its columns with the copy.
        """
        columns = self._columns
        if columns.flags.any():
            columns = TraceColumns.untimed(columns.arrival_us, columns.lba, columns.size, columns.op)
        return self._derived(columns)

    def rebased(self) -> "Trace":
        """Shift timestamps so the first arrival is at time zero."""
        delta = -self.start_us
        c = self._columns
        return self._derived(
            TraceColumns(
                c.arrival_us + delta,
                c.service_start_us + delta,
                c.complete_us + delta,
                c.lba,
                c.size,
                c.op,
                c.flags,
            )
        )

    def with_requests(self, requests: Iterable[Request]) -> "Trace":
        """Return a copy of this trace holding ``requests`` instead."""
        return Trace(self.name, requests, dict(self.metadata))


def merge(name: str, *traces: Trace) -> Trace:
    """Merge several traces into one ordered stream (timestamps untouched)."""
    metadata: Dict[str, str] = {}
    for trace in traces:
        for key, value in trace.metadata.items():
            metadata.setdefault(f"{trace.name}.{key}", value)
    return Trace.from_columns(
        name, TraceColumns.concat([trace.columns() for trace in traces]), metadata
    )
