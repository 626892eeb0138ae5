"""The trace store: :class:`~repro.trace.TraceColumns` in a chunked table.

Each chunk holds the seven ``TraceColumns`` arrays of a contiguous slice
of the request stream (42 bytes per row); the chunk index records each
chunk's min/max ``arrival_us`` so :meth:`TraceStore.select_arrival_range`
opens only overlapping chunks.  The manifest header is the trace's
``name`` and ``metadata`` plus ``arrival_sorted``: whether the stream is
globally non-decreasing in arrival time (always for generated and
replayed traces; a raw ``blkparse`` import completes out of order).

Write side: :func:`pack` (one shot) and :class:`StoreWriter`
(streaming: producers append request/column batches of any size and
never hold the full trace).  Read side: :func:`open_store` returns a
:class:`TraceStore` with re-chunking iteration, pruned range/mask
selection and the ``to_trace()`` escape hatch.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.trace import Request, Trace, TraceColumns
from repro.trace.columns import is_arrival_sorted

from .table import Manifest, PathLike, Schema, Table, TableWriter

#: The trace store's layout.  Version 1 is the original format: stores
#: pack byte-identically to every earlier release.
TRACE_SCHEMA = Schema(
    format="repro-trace-store",
    version=1,
    columns=(
        ("arrival_us", "<f8"),
        ("service_start_us", "<f8"),
        ("complete_us", "<f8"),
        ("lba", "<i8"),
        ("size", "<i8"),
        ("op", "|u1"),
        ("flags", "|u1"),
    ),
    index="arrival_us",
)

#: Default rows per chunk: 64 Ki rows is ~2.6 MiB per chunk file, small
#: enough that a re-chunking reader never concatenates much, large enough
#: that the manifest stays tiny even for 1000x-scaled traces.
DEFAULT_CHUNK_ROWS = 65536


def as_table_columns(columns: TraceColumns) -> Dict[str, np.ndarray]:
    """``TraceColumns`` as the column mapping the table layer writes."""
    return {name: getattr(columns, name) for name, _ in TRACE_SCHEMA.columns}


def concat_columns(pieces: Sequence[TraceColumns]) -> TraceColumns:
    """Concatenate column sets into one (empty input -> empty columns)."""
    return TraceColumns.concat(pieces)


class StoreWriter(TableWriter):
    """Incrementally write one trace store directory.

    Usage::

        with StoreWriter(path, name="Twitter", metadata=meta) as writer:
            for batch in produce_request_batches():
                writer.append_requests(batch)
        store = open_store(path)
    """

    def __init__(
        self,
        path: PathLike,
        name: str = "trace",
        metadata: Optional[Dict[str, str]] = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        overwrite: bool = False,
    ) -> None:
        header = {"name": name, "metadata": dict(metadata or {}), "arrival_sorted": True}
        super().__init__(path, TRACE_SCHEMA, chunk_rows, header, overwrite)
        self._last_arrival: Optional[float] = None

    def append_columns(self, columns: TraceColumns) -> None:
        """Queue a columnar batch (any length, including zero)."""
        arrivals = columns.arrival_us
        if len(arrivals):
            if self.header["arrival_sorted"] and (
                (self._last_arrival is not None and float(arrivals[0]) < self._last_arrival)
                or not is_arrival_sorted(arrivals)
            ):
                self.header["arrival_sorted"] = False
            self._last_arrival = float(arrivals[-1])
        self.append(as_table_columns(columns))

    def append_requests(self, requests: Sequence[Request]) -> None:
        """Queue a batch of :class:`~repro.trace.Request` records."""
        if requests:
            self.append_columns(TraceColumns.from_requests(list(requests)))

    def append_trace(self, trace: Trace) -> None:
        """Queue a whole trace's columns."""
        self.append_columns(trace.columns())


def pack(
    source: Union[Trace, TraceColumns, Iterable[TraceColumns]],
    path: PathLike,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    name: Optional[str] = None,
    metadata: Optional[Dict[str, str]] = None,
    overwrite: bool = False,
) -> Manifest:
    """Pack ``source`` into a store directory at ``path``; returns the manifest.

    ``source`` may be a :class:`~repro.trace.Trace` (name/metadata are
    taken from it unless overridden), a single
    :class:`~repro.trace.TraceColumns`, or any iterable of column
    batches (the fully streaming path).
    """
    batches: Iterable[TraceColumns]
    if isinstance(source, Trace):
        name = source.name if name is None else name
        metadata = source.metadata if metadata is None else metadata
        batches = [source.columns()]
    else:
        batches = [source] if isinstance(source, TraceColumns) else source
    writer = StoreWriter(
        path,
        name="trace" if name is None else name,
        metadata=metadata,
        chunk_rows=chunk_rows,
        overwrite=overwrite,
    )
    for batch in batches:
        writer.append_columns(batch)
    return writer.close()


class TraceStore(Table):
    """One opened trace store directory (read-only)."""

    def __init__(self, path: PathLike) -> None:
        super().__init__(path, TRACE_SCHEMA)

    @property
    def name(self) -> str:
        """Trace name recorded in the manifest."""
        return str(self.manifest.get("name", "trace"))

    @property
    def metadata(self) -> Dict[str, str]:
        """Trace metadata recorded in the manifest."""
        return {str(k): str(v) for k, v in (self.manifest.get("metadata") or {}).items()}

    @property
    def arrival_sorted(self) -> bool:
        """True when the stream is globally non-decreasing in arrival."""
        return bool(self.manifest.get("arrival_sorted", True))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceStore({str(self.path)!r}, rows={len(self)}, chunks={self.num_chunks})"

    def chunk(self, index: int) -> TraceColumns:
        """The ``index``-th stored chunk as zero-copy memmap columns."""
        return TraceColumns(**self.chunk_columns(index))

    def iter_chunks(  # type: ignore[override]
        self, chunk_rows: Optional[int] = None
    ) -> Iterator[TraceColumns]:
        """Iterate the stream as column batches.

        ``chunk_rows=None`` yields the stored chunks as-is (zero-copy).
        An explicit ``chunk_rows`` re-chunks: every yielded batch has
        exactly ``chunk_rows`` rows except possibly the last.  Batches
        that cross stored-chunk boundaries are concatenated (a copy
        bounded by one output chunk); batches inside one stored chunk
        are zero-copy views.
        """
        if chunk_rows is None:
            for index in range(self.num_chunks):
                yield self.chunk(index)
            return
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        pending: List[TraceColumns] = []
        pending_rows = 0
        for index in range(self.num_chunks):
            piece = self.chunk(index)
            position = 0
            while position < len(piece):
                take = min(len(piece) - position, chunk_rows - pending_rows)
                pending.append(piece.select(slice(position, position + take)))
                pending_rows += take
                position += take
                if pending_rows == chunk_rows:
                    yield concat_columns(pending)
                    pending = []
                    pending_rows = 0
        if pending_rows:
            yield concat_columns(pending)

    def columns(self) -> TraceColumns:
        """Every chunk concatenated into one in-memory column set."""
        return concat_columns([self.chunk(i) for i in range(self.num_chunks)])

    def chunks_overlapping(self, start_us: float, end_us: float) -> List[int]:
        """Indices of chunks whose arrival span intersects ``[start, end)``.

        Pure manifest arithmetic -- no chunk file is opened.  Valid for
        unsorted stores too: per-chunk min/max are computed from the
        data, not assumed from ordering.
        """
        return [
            index
            for index, info in enumerate(self.manifest["chunks"])
            if info["max_arrival_us"] >= start_us and info["min_arrival_us"] < end_us
        ]

    def select_arrival_range(self, start_us: float, end_us: float) -> TraceColumns:
        """Rows with ``start_us <= arrival_us < end_us``, pruned by chunk."""
        pieces: List[TraceColumns] = []
        for index in self.chunks_overlapping(start_us, end_us):
            piece = self.chunk(index)
            mask = (piece.arrival_us >= start_us) & (piece.arrival_us < end_us)
            if mask.all():
                pieces.append(piece)
            elif mask.any():
                pieces.append(piece.select(mask))
        return concat_columns(pieces)

    def where(self, predicate: Callable[[TraceColumns], np.ndarray]) -> TraceColumns:
        """Rows for which ``predicate(chunk)`` is true, one chunk at a time."""
        pieces: List[TraceColumns] = []
        for piece in self.iter_chunks():
            mask = np.asarray(predicate(piece), dtype=bool)
            if mask.shape != (len(piece),):
                raise ValueError("predicate mask does not match chunk length")
            if mask.any():
                pieces.append(piece.select(mask))
        return concat_columns(pieces)

    def to_trace(self) -> Trace:
        """Materialize the full in-memory :class:`~repro.trace.Trace`.

        The stored columns become the trace's columns.  Every row is
        checked as ``Request`` checks it (a store is input from outside
        the program), and an unsorted store (e.g. a raw blkparse import)
        is stably sorted by arrival, which reproduces the whole-file
        parse exactly.
        """
        return Trace.from_columns(self.name, self.columns(), metadata=self.metadata)


def open_store(path: PathLike) -> TraceStore:
    """Open the trace store directory at ``path`` (manifest validated)."""
    return TraceStore(path)
