"""Span stores: a telemetry sink's spans in a :mod:`repro.store` table.

Rows are spans -- ``parent`` (int64), ``name_id``/``cat_id``/
``track_id`` (uint32 indices into the manifest's string tables) and
``start_us``/``dur_us`` (float64) -- in the shared chunked layout (see
``docs/trace-store.md``), so span analytics over arbitrarily large
recordings run out of core, one memory-mapped chunk at a time.

The manifest header carries the ``names``/``cats``/``tracks`` string
tables, built in first-seen order, and the sink's ``meta``.  Chunk
bytes are a pure function of the spans, so packing the same recording
twice -- any process, any hash seed -- produces byte-identical
directories.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.store import DEFAULT_CHUNK_ROWS, Schema, Table, TableWriter
from repro.store.table import Manifest, PathLike

from .core import S_CAT, S_DUR, S_NAME, S_PARENT, S_START, S_TRACK, Telemetry

#: The span store's layout.
SPAN_SCHEMA = Schema(
    format="repro-span-store",
    version=2,
    columns=(
        ("parent", "<i8"),
        ("name_id", "<u4"),
        ("cat_id", "<u4"),
        ("track_id", "<u4"),
        ("start_us", "<f8"),
        ("dur_us", "<f8"),
    ),
)


def _dictionary_code(values: Sequence[str]) -> Tuple[np.ndarray, List[str]]:
    """``values`` as indices into a first-seen-order string table."""
    ids: Dict[str, int] = {}
    codes = np.fromiter(
        (ids.setdefault(value, len(ids)) for value in values), dtype="<u4", count=len(values)
    )
    return codes, list(ids)


def pack_spans(
    telemetry: Telemetry,
    path: PathLike,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    overwrite: bool = False,
) -> Manifest:
    """Write ``telemetry``'s spans as a span store; returns the manifest."""
    spans = telemetry.spans
    name_id, names = _dictionary_code([span[S_NAME] for span in spans])
    cat_id, cats = _dictionary_code([span[S_CAT] for span in spans])
    track_id, tracks = _dictionary_code([span[S_TRACK] for span in spans])
    header = {
        "names": names,
        "cats": cats,
        "tracks": tracks,
        "meta": {str(key): str(value) for key, value in telemetry.meta.items()},
    }
    writer = TableWriter(path, SPAN_SCHEMA, chunk_rows, header, overwrite)
    writer.append(
        {
            "parent": np.fromiter((span[S_PARENT] for span in spans), "<i8", len(spans)),
            "name_id": name_id,
            "cat_id": cat_id,
            "track_id": track_id,
            "start_us": np.fromiter((span[S_START] for span in spans), "<f8", len(spans)),
            "dur_us": np.fromiter((span[S_DUR] for span in spans), "<f8", len(spans)),
        }
    )
    return writer.close()


class SpanStore(Table):
    """Read-side handle on a packed span store directory."""

    def __init__(self, path: PathLike) -> None:
        super().__init__(path, SPAN_SCHEMA)
        self.names: List[str] = list(self.manifest["names"])
        self.cats: List[str] = list(self.manifest["cats"])
        self.tracks: List[str] = list(self.manifest["tracks"])

    def totals_by_name(self) -> Dict[str, Tuple[int, float]]:
        """Out-of-core ``name -> (count, total_us)`` aggregation."""
        counts = np.zeros(len(self.names), dtype=np.int64)
        totals = np.zeros(len(self.names), dtype=np.float64)
        for chunk in self.iter_chunks():
            counts += np.bincount(chunk["name_id"], minlength=len(self.names))
            totals += np.bincount(
                chunk["name_id"], weights=chunk["dur_us"], minlength=len(self.names)
            )
        return {
            name: (int(counts[index]), float(totals[index]))
            for index, name in enumerate(self.names)
        }


def open_span_store(path: PathLike) -> SpanStore:
    """Open a packed span store directory for reading."""
    return SpanStore(path)
