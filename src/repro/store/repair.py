"""Crash-consistency repair for stores of any schema.

Two failure shapes, one entry point (:func:`repair`):

* **Damaged store** -- a manifest exists but some chunk files are torn,
  bit-flipped or missing.  Bad chunks are quarantined (renamed with
  :data:`~repro.store.table.QUARANTINE_SUFFIX`) and then either rebuilt
  from a caller-provided source trace (checksum-verified against the
  index, so the rebuild is provably bit-identical to the original pack)
  or -- when the damage is a pure tail and no source is available --
  truncated out of the index.  Losing a *mid-stream* chunk with no
  source is unrecoverable and raises.

* **Killed writer** -- no manifest, but the writer's crash journal is
  present.  The journaled chunks are re-hashed, any chunk file beyond
  the journal (the torn tail the kill interrupted) is quarantined, and
  the journal -- which carries the header as of its last flush --
  becomes the manifest.  With a source, the missing tail is re-chunked
  at the journal's ``chunk_rows`` first, so the result is byte-identical
  to a never-crashed pack; without one, the manifest covers the
  verified prefix.

Repair works from the store's own manifest or journal, so it needs no
typed reader.  Rebuilding from a source needs the rows' meaning and is
supported for trace stores only.  Every repair ends with a strict
:meth:`~repro.store.table.Table.verify`, so ``repair()`` returning
implies ``verify()`` passes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.trace import Trace, TraceColumns
from repro.trace.columns import is_arrival_sorted

from .table import (
    QUARANTINE_SUFFIX,
    Manifest,
    PathLike,
    StoreError,
    Table,
    chunk_filename,
    journal_path,
    manifest_path,
    read_index,
    verify_chunk_file,
    write_chunk,
    write_json,
)
from .trace import TRACE_SCHEMA, as_table_columns


@dataclass
class RepairReport:
    """What one :func:`repair` call did to a store directory."""

    path: str
    #: True when the store was finalized from a killed writer's journal.
    used_journal: bool = False
    #: Chunk files renamed aside as ``<name>.corrupt``.
    quarantined: List[str] = field(default_factory=list)
    #: Chunk files re-written from the source trace (checksum-verified).
    rebuilt: List[str] = field(default_factory=list)
    #: Trailing chunks dropped from the index (no source to rebuild from).
    dropped_chunks: List[str] = field(default_factory=list)
    #: Rows in the repaired, verified store.
    total_rows: int = 0

    def describe(self) -> str:
        """One-line human summary for the CLI."""
        actions = []
        if self.used_journal:
            actions.append("finalized from writer journal")
        if self.quarantined:
            actions.append(f"quarantined {', '.join(self.quarantined)}")
        if self.rebuilt:
            actions.append(f"rebuilt {', '.join(self.rebuilt)}")
        if self.dropped_chunks:
            actions.append(f"dropped {', '.join(self.dropped_chunks)}")
        if not actions:
            actions.append("nothing to do")
        return f"{self.path}: {'; '.join(actions)} ({self.total_rows} rows)"


def _quarantine(store_dir: Path, file_name: str, report: RepairReport) -> None:
    path = store_dir / file_name
    if path.is_file():
        os.replace(path, store_dir / (file_name + QUARANTINE_SUFFIX))
    report.quarantined.append(file_name)


def _write_trace_chunk(store_dir: Path, file_name: str, columns: TraceColumns) -> Manifest:
    return write_chunk(store_dir / file_name, TRACE_SCHEMA, as_table_columns(columns))


def _repair_against_index(
    store_dir: Path,
    chunks: List[Manifest],
    columns: Optional[TraceColumns],
    report: RepairReport,
) -> List[Manifest]:
    """Quarantine+rebuild (or truncate) bad chunks; returns the kept index."""
    bad = []
    for index, info in enumerate(chunks):
        problem = verify_chunk_file(store_dir, info)
        if problem is not None:
            bad.append((index, problem))
    if not bad:
        return list(chunks)
    for _, problem in bad:
        if problem.reason != "missing":
            _quarantine(store_dir, problem.file, report)
    if columns is not None:
        for index, _ in bad:
            info = chunks[index]
            start = sum(previous["rows"] for previous in chunks[:index])
            if start + info["rows"] > len(columns):
                raise StoreError(
                    f"source trace has {len(columns)} rows; cannot rebuild "
                    f"{info['file']} covering rows {start}..{start + info['rows']}"
                )
            piece = columns.select(slice(start, start + info["rows"]))
            if _write_trace_chunk(store_dir, info["file"], piece)["sha256"] != info["sha256"]:
                raise StoreError(
                    f"rebuilt {info['file']} does not match the recorded checksum -- "
                    "the provided source is not the trace this store was packed from"
                )
            report.rebuilt.append(info["file"])
        return list(chunks)
    # No source: recoverable only when the damage is a pure tail.
    first_bad = bad[0][0]
    if [index for index, _ in bad] != list(range(first_bad, len(chunks))):
        raise StoreError(
            f"chunk {chunks[first_bad]['file']} is damaged mid-stream and no "
            "source trace was provided to rebuild it"
        )
    report.dropped_chunks.extend(info["file"] for info in chunks[first_bad:])
    return list(chunks[:first_bad])


def repair(
    path: PathLike,
    source: Optional[Union[Trace, TraceColumns]] = None,
) -> RepairReport:
    """Detect, quarantine and (where possible) undo store damage.

    ``source`` -- the trace a trace store was packed from, when
    available -- turns quarantines into checksum-verified rebuilds and
    lets a killed writer's store be completed to a byte-identical clean
    pack.  Raises :class:`~repro.store.table.StoreError` when the damage
    is unrecoverable (mid-stream loss with no source, no manifest *and*
    no journal, a source that does not match the recorded checksums, or
    a source given for a store that is not a trace store).
    """
    store_dir = Path(path)
    schema, manifest, from_journal = read_index(store_dir)
    columns = None
    if source is not None:
        if schema.format != TRACE_SCHEMA.format:
            raise StoreError(
                f"{store_dir!s} is a {schema.format}; only trace stores can be "
                "rebuilt from a source"
            )
        columns = source.columns() if isinstance(source, Trace) else source
    report = RepairReport(path=str(store_dir), used_journal=from_journal)
    chunks = manifest["chunks"]
    kept = _repair_against_index(store_dir, chunks, columns, report)
    if from_journal:
        journaled = {info["file"] for info in chunks}
        for stray in sorted(store_dir.glob("chunk-*.bin")):
            if stray.name not in journaled:
                # The torn tail the kill interrupted (never journaled).
                _quarantine(store_dir, stray.name, report)
        if columns is not None:
            # Complete the pack: re-chunk the tail exactly as the writer
            # would have, so the result is byte-identical to a clean pack.
            position = sum(info["rows"] for info in kept)
            while position < len(columns):
                stop = min(position + manifest["chunk_rows"], len(columns))
                info = _write_trace_chunk(
                    store_dir, chunk_filename(len(kept)), columns.select(slice(position, stop))
                )
                report.rebuilt.append(info["file"])
                kept.append(info)
                position = stop
            manifest["arrival_sorted"] = is_arrival_sorted(columns.arrival_us)
        del manifest["chunk_rows"]
        manifest["format"] = schema.format
    if from_journal or kept != chunks:
        manifest["chunks"] = kept
        manifest["total_rows"] = sum(info["rows"] for info in kept)
        write_json(manifest_path(store_dir), manifest)
    # A crash between manifest write and journal cleanup in close()
    # leaves both; the manifest wins.
    journal_path(store_dir).unlink(missing_ok=True)
    store = Table(store_dir, schema)
    store.verify(strict=True)
    report.total_rows = len(store)
    return report
