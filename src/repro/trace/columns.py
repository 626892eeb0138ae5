"""Columnar struct-of-arrays backing for :class:`~repro.trace.Trace`.

The characterization experiments (Tables III/IV, Figs. 4-7) walk the 25
traces request-by-request; at ~240k requests per full run the pure-Python
loops over :class:`~repro.trace.record.Request` dataclasses dominate
wall-clock.  :class:`TraceColumns` is the struct-of-arrays form the
vectorized analysis kernels consume instead: one contiguous NumPy array
per request field.  A :class:`~repro.trace.Trace` *is* one of these (see
:meth:`repro.trace.Trace.columns`); its ``Request`` records are a view
built from it.

Column schema (all arrays share one length, one row per request, in
arrival order):

===================  =========  ==================================================
column               dtype      meaning
===================  =========  ==================================================
``arrival_us``       float64    block-layer arrival time
``service_start_us`` float64    dispatch time; ``NaN`` when never replayed
``complete_us``      float64    completion time; ``NaN`` when never replayed
``lba``              int64      logical byte address (4 KiB aligned)
``size``             int64      request size in bytes (4 KiB multiple)
``op``               uint8      :data:`OP_READ` / :data:`OP_WRITE`
``flags``            uint8      :data:`FLAG_HAS_SERVICE` | :data:`FLAG_HAS_FINISH`
===================  =========  ==================================================

Bit-identity contract
---------------------

The vectorized kernels built on these columns must reproduce the scalar
request-loop results *bit for bit* (the experiment digests are part of
the golden-parity CI gate).  Two rules make that possible:

* element-wise arithmetic (``complete_us - arrival_us``, ``gap /
  US_PER_MS``) is the same IEEE-754 operation the scalar code performs
  per request, so masks/extractions commute with it;
* ordered float reductions use :func:`sequential_sum`, which reduces
  left-to-right exactly like the built-in ``sum()`` (NumPy's ``np.sum``
  would use pairwise summation and drift in the last ulps).

Integer reductions (counts, byte totals, ``np.unique`` hit counts) are
exact in any order and vectorize freely.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from .record import Op, Request

#: ``flags`` bit: the request carries a ``service_start_us`` timestamp.
FLAG_HAS_SERVICE = 0x1
#: ``flags`` bit: the request carries a ``finish_us`` timestamp.
FLAG_HAS_FINISH = 0x2

#: ``op`` column codes.
OP_READ = 0
OP_WRITE = 1

#: The seven columns, in schema order.
COLUMN_NAMES = (
    "arrival_us", "service_start_us", "complete_us", "lba", "size", "op", "flags",
)


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, bit-identical to ``sum(list_of_floats)``.

    ``np.add.accumulate`` reduces strictly sequentially (each partial is
    an output element), unlike ``np.sum``'s pairwise blocking, so its last
    element reproduces the scalar loop's rounding exactly.  Returns 0.0
    for an empty array, like ``sum([])``.
    """
    array = np.asarray(values)
    if array.size == 0:
        return 0.0
    return float(np.add.accumulate(array, dtype=np.float64)[-1])


def is_arrival_sorted(arrivals: np.ndarray) -> bool:
    """True when ``arrivals`` never decreases."""
    return arrivals.size < 2 or not bool(np.any(np.diff(arrivals) < 0))


class TraceColumns:
    """Immutable-by-convention struct-of-arrays rows of one trace.

    Instances are cheap façades over seven NumPy arrays, built from
    arrays (the workload generator, the scaling transforms, the CSV
    reader, the trace store and the replay fast path) or via
    :meth:`from_requests`.  Do not mutate the arrays in place: traces
    share them, and the cached masks and request views would go stale.
    """

    __slots__ = COLUMN_NAMES + ("_read_mask", "_write_mask", "_completed_mask")

    def __init__(
        self,
        arrival_us: np.ndarray,
        service_start_us: np.ndarray,
        complete_us: np.ndarray,
        lba: np.ndarray,
        size: np.ndarray,
        op: np.ndarray,
        flags: np.ndarray,
    ) -> None:
        self.arrival_us = np.asarray(arrival_us, dtype=np.float64)
        self.service_start_us = np.asarray(service_start_us, dtype=np.float64)
        self.complete_us = np.asarray(complete_us, dtype=np.float64)
        self.lba = np.asarray(lba, dtype=np.int64)
        self.size = np.asarray(size, dtype=np.int64)
        self.op = np.asarray(op, dtype=np.uint8)
        self.flags = np.asarray(flags, dtype=np.uint8)
        n = self.arrival_us.shape[0]
        for name in ("service_start_us", "complete_us", "lba", "size", "op", "flags"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"column {name!r} does not match length {n}")
        self._read_mask = None
        self._write_mask = None
        self._completed_mask = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_requests(cls, requests: Sequence[Request]) -> "TraceColumns":
        """Extract the seven columns from a request list (one pass each)."""
        nan = float("nan")
        arrival = np.array([r.arrival_us for r in requests], dtype=np.float64)
        service = np.array(
            [nan if r.service_start_us is None else r.service_start_us for r in requests],
            dtype=np.float64,
        )
        complete = np.array(
            [nan if r.finish_us is None else r.finish_us for r in requests],
            dtype=np.float64,
        )
        lba = np.array([r.lba for r in requests], dtype=np.int64)
        size = np.array([r.size for r in requests], dtype=np.int64)
        write = Op.WRITE
        op = np.array([r.op is write for r in requests], dtype=np.uint8)
        flags = np.where(np.isnan(service), 0, FLAG_HAS_SERVICE).astype(np.uint8)
        flags |= np.where(np.isnan(complete), 0, FLAG_HAS_FINISH).astype(np.uint8)
        return cls(arrival, service, complete, lba, size, op, flags)

    @classmethod
    def untimed(cls, arrival_us, lba, size, op) -> "TraceColumns":
        """Rows never replayed on a device: no service start, no finish."""
        count = len(arrival_us)
        never = np.full(count, np.nan)
        return cls(arrival_us, never, never.copy(), lba, size, op, np.zeros(count, np.uint8))

    @classmethod
    def empty(cls) -> "TraceColumns":
        """A zero-length column set."""
        return cls.untimed(np.empty(0), np.empty(0), np.empty(0), np.empty(0))

    @classmethod
    def concat(cls, pieces: Sequence["TraceColumns"]) -> "TraceColumns":
        """The rows of ``pieces``, one after another (none: empty columns)."""
        pieces = [piece for piece in pieces if len(piece)]
        if not pieces:
            return cls.empty()
        if len(pieces) == 1:
            return pieces[0]
        return cls(
            *(np.concatenate([getattr(piece, name) for piece in pieces]) for name in COLUMN_NAMES)
        )

    def to_requests(self) -> List[Request]:
        """Materialize :class:`Request` objects (the simulator-facing view).

        Whole columns convert with ``.tolist()``: Python floats and ints
        straight from the arrays, no NumPy scalar per field.
        """
        read, write = Op.READ, Op.WRITE
        flags = self.flags.tolist()
        service = [
            value if flag & FLAG_HAS_SERVICE else None
            for value, flag in zip(self.service_start_us.tolist(), flags)
        ]
        finish = [
            value if flag & FLAG_HAS_FINISH else None
            for value, flag in zip(self.complete_us.tolist(), flags)
        ]
        return [
            Request(arrival, lba, size, write if op else read, start, end)
            for arrival, lba, size, op, start, end in zip(
                self.arrival_us.tolist(),
                self.lba.tolist(),
                self.size.tolist(),
                self.op.tolist(),
                service,
                finish,
            )
        ]

    # -- container ------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.arrival_us.shape[0])

    def select(self, index: Union[slice, np.ndarray]) -> "TraceColumns":
        """Row subset as a new column set.

        A plain ``slice`` yields zero-copy views of every column; boolean
        masks and fancy index arrays follow NumPy semantics and copy.
        """
        return TraceColumns(*(getattr(self, name)[index] for name in COLUMN_NAMES))

    # -- derived masks (cached) ----------------------------------------------

    @property
    def read_mask(self) -> np.ndarray:
        """Boolean mask of read requests."""
        if self._read_mask is None:
            self._read_mask = self.op == OP_READ
        return self._read_mask

    @property
    def write_mask(self) -> np.ndarray:
        """Boolean mask of write requests."""
        if self._write_mask is None:
            self._write_mask = self.op == OP_WRITE
        return self._write_mask

    @property
    def completed_mask(self) -> np.ndarray:
        """Boolean mask of requests carrying device timestamps."""
        if self._completed_mask is None:
            self._completed_mask = (self.flags & FLAG_HAS_FINISH) != 0
        return self._completed_mask

    # -- derived columns ------------------------------------------------------

    @property
    def end_lba(self) -> np.ndarray:
        """First byte past each accessed range (``lba + size``)."""
        return self.lba + self.size

    @property
    def inter_arrival_us(self) -> np.ndarray:
        """Successive arrival gaps (length ``n - 1``; empty for ``n <= 1``)."""
        if len(self) <= 1:
            return np.empty(0, dtype=np.float64)
        return np.diff(self.arrival_us)

    @property
    def wait_us(self) -> np.ndarray:
        """Queueing delay per request (``NaN`` where not replayed)."""
        return self.service_start_us - self.arrival_us

    @property
    def service_us(self) -> np.ndarray:
        """Device service time per request (``NaN`` where not replayed)."""
        return self.complete_us - self.service_start_us

    @property
    def response_us(self) -> np.ndarray:
        """End-to-end response time per request (``NaN`` where not replayed)."""
        return self.complete_us - self.arrival_us

    # -- pickling (``__slots__`` has no ``__dict__``) -------------------------

    def __getstate__(self):
        return tuple(getattr(self, name) for name in COLUMN_NAMES)

    def __setstate__(self, state) -> None:
        self.__init__(*state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceColumns(n={len(self)})"
