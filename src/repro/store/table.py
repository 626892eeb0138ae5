"""The chunked columnar table every store in the repository is built on.

A store is a directory::

    mystore/
        manifest.json           # schema, header, per-chunk index
        manifest.partial.json   # crash journal (only while a writer runs)
        chunk-000000.bin        # rows [0, chunk_rows), column-major
        chunk-000001.bin
        ...

A :class:`Schema` declares the layout: a format marker, a version, an
ordered list of ``(column, little-endian dtype)`` pairs, and optionally
one range-index column whose per-chunk min/max the index records.  Each
chunk file holds its rows' columns back to back in schema order with no
header, so any column of any chunk is a memory map at an offset that is
pure arithmetic from the row count.

The manifest is one JSON object: the schema-specific *header* keys as
top-level keys, plus ``format``, ``version``, ``columns`` (column ->
dtype), ``total_rows`` and ``chunks`` (file, rows, nbytes, sha256 and
``min_<index>``/``max_<index>`` per chunk).  It is written last, through
a temp file and ``os.replace``, and carries no timestamps, so writing
the same rows twice yields byte-identical directories.

:class:`TableWriter` journals after every chunk flush: the journal is
the manifest the writer would write if closed now (format marker
``<format>-journal``, plus ``chunk_rows``), so a killed writer leaves a
journal that :func:`repro.store.repair` turns into a manifest the typed
reader opens.  :class:`Table` validates a manifest against its schema,
maps chunk columns and re-hashes chunks in :meth:`Table.verify`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from types import TracebackType
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Type, Union

import numpy as np

#: File name of the manifest inside a store directory.
MANIFEST_NAME = "manifest.json"

#: File name of the writer's crash journal.  Present only while a
#: :class:`TableWriter` is mid-stream (``close()`` removes it), so finding
#: one without a manifest identifies a killed writer.
JOURNAL_NAME = "manifest.partial.json"

#: Suffix of a journal's format marker.
JOURNAL_SUFFIX = "-journal"

#: Suffix appended to quarantined (corrupt/torn) chunk files by repair.
QUARANTINE_SUFFIX = ".corrupt"

PathLike = Union[str, Path]
Manifest = Dict[str, Any]
Columns = Dict[str, np.ndarray]


class StoreError(RuntimeError):
    """A store directory is missing, malformed or corrupt."""


@dataclass(frozen=True)
class Schema:
    """The on-disk layout of one kind of store."""

    format: str
    version: int
    #: ``(column, little-endian dtype)`` pairs in on-disk order.
    columns: Tuple[Tuple[str, str], ...]
    #: Column whose per-chunk min/max the chunk index records, if any.
    index: Optional[str] = None

    @property
    def dtypes(self) -> Dict[str, str]:
        """Column -> dtype, exactly as the manifest records it."""
        return dict(self.columns)

    @property
    def row_nbytes(self) -> int:
        """Bytes one row occupies across all columns."""
        return sum(np.dtype(dtype).itemsize for _, dtype in self.columns)

    @classmethod
    def declared_by(cls, manifest: Manifest, journal: bool = False) -> "Schema":
        """The schema a manifest (or journal) declares about itself.

        JSON does not keep column order, so this schema serves
        whole-chunk work (verify, repair), not column reads.
        """
        marker, columns = manifest.get("format"), manifest.get("columns")
        if not isinstance(marker, str) or journal != marker.endswith(JOURNAL_SUFFIX):
            what = "journal" if journal else "manifest"
            raise StoreError(f"not a store {what}: format={marker!r}")
        if not isinstance(columns, dict):
            raise StoreError(f"manifest columns must be an object, got {columns!r}")
        try:
            for dtype in columns.values():
                np.dtype(dtype)
        except TypeError as error:
            raise StoreError(f"manifest declares an invalid dtype: {error}") from error
        return cls(
            marker[: -len(JOURNAL_SUFFIX)] if journal else marker,
            manifest.get("version"),  # type: ignore[arg-type]
            tuple(columns.items()),
        )


def chunk_filename(index: int) -> str:
    """File name of the ``index``-th chunk (zero-based, zero-padded)."""
    if index < 0:
        raise ValueError("chunk index must be non-negative")
    return f"chunk-{index:06d}.bin"


def manifest_path(store_dir: PathLike) -> Path:
    """Path of the manifest inside ``store_dir``."""
    return Path(store_dir) / MANIFEST_NAME


def journal_path(store_dir: PathLike) -> Path:
    """Path of the crash journal inside ``store_dir``."""
    return Path(store_dir) / JOURNAL_NAME


def write_json(path: Path, payload: Manifest) -> None:
    """Write ``payload`` canonically and atomically (temp + rename)."""
    temp = path.with_suffix(".json.tmp")
    temp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(temp, path)


def _read_json(path: Path) -> Manifest:
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise StoreError(f"corrupt manifest at {path!s}: {error}") from error
    if not isinstance(raw, dict):
        raise StoreError(f"corrupt manifest at {path!s}: not a JSON object")
    return raw


def _check_manifest(raw: Manifest, schema: Schema, journal: bool = False) -> Manifest:
    """Validate manifest (or journal) JSON against ``schema``; returns it."""
    marker = schema.format + (JOURNAL_SUFFIX if journal else "")
    if raw.get("format") != marker:
        raise StoreError(f"not a {marker} manifest: format={raw.get('format')!r}")
    if raw.get("version") != schema.version:
        raise StoreError(
            f"unsupported {schema.format} version {raw.get('version')!r} "
            f"(reader supports {schema.version})"
        )
    if raw.get("columns") != schema.dtypes:
        raise StoreError(
            f"incompatible column schema {raw.get('columns')!r}; expected {schema.dtypes!r}"
        )
    chunks = raw.get("chunks")
    if not isinstance(chunks, list):
        raise StoreError("manifest chunks must be a list")
    total = 0
    for position, info in enumerate(chunks):
        try:
            name, rows, nbytes, _ = info["file"], info["rows"], info["nbytes"], info["sha256"]
        except (KeyError, TypeError) as error:
            raise StoreError(f"malformed chunk entry in manifest: {info!r}") from error
        if name != chunk_filename(position):
            raise StoreError(
                f"chunk {position} is named {name!r}, expected {chunk_filename(position)}"
            )
        if not isinstance(rows, int) or rows < 1 or nbytes != rows * schema.row_nbytes:
            raise StoreError(
                f"chunk {name}: {nbytes} bytes inconsistent with {rows} rows of "
                f"{schema.row_nbytes} bytes"
            )
        total += rows
    if raw.get("total_rows") != total:
        raise StoreError(
            f"manifest total_rows={raw.get('total_rows')!r} disagrees with chunk sum {total}"
        )
    chunk_rows = raw.get("chunk_rows")
    if journal and not (isinstance(chunk_rows, int) and chunk_rows > 0):
        raise StoreError(f"journal chunk_rows must be a positive integer, got {chunk_rows!r}")
    return raw


def read_index(store_dir: PathLike) -> Tuple[Schema, Manifest, bool]:
    """A store's declared schema and index: its manifest or, when no
    manifest exists, its killed writer's journal (third item ``True``)."""
    for path, journal in ((manifest_path(store_dir), False), (journal_path(store_dir), True)):
        if path.is_file():
            raw = _read_json(path)
            schema = Schema.declared_by(raw, journal)
            return schema, _check_manifest(raw, schema, journal), journal
    raise StoreError(
        f"{store_dir!s} has neither a manifest nor a writer journal -- "
        "nothing to repair from"
    )


def write_chunk(path: Path, schema: Schema, columns: Mapping[str, np.ndarray]) -> Manifest:
    """Write one chunk file and return its index entry.

    Columns go to disk in schema order while a SHA-256 is folded over
    the exact bytes written -- the one byte-level writer shared by
    :class:`TableWriter` and :func:`repro.store.repair`, so a rebuilt
    chunk is bit-identical to the original.
    """
    digest = hashlib.sha256()
    nbytes = 0
    with open(path, "wb") as handle:
        for name, dtype in schema.columns:
            payload = np.ascontiguousarray(columns[name], dtype=np.dtype(dtype)).tobytes()
            digest.update(payload)
            handle.write(payload)
            nbytes += len(payload)
    info: Manifest = {
        "file": path.name,
        "rows": len(columns[schema.columns[0][0]]),
        "nbytes": nbytes,
        "sha256": digest.hexdigest(),
    }
    if schema.index is not None:
        values = columns[schema.index]
        info[f"min_{schema.index}"] = float(values.min())
        info[f"max_{schema.index}"] = float(values.max())
    return info


@dataclass(frozen=True)
class BadChunk:
    """One chunk file that failed verification."""

    file: str
    #: Why: ``"missing"`` (file gone), ``"truncated"`` (wrong size, a torn
    #: write), or ``"corrupt"`` (right size, wrong checksum -- bit rot).
    reason: str
    expected_nbytes: int
    actual_nbytes: int

    def describe(self) -> str:
        """One-line human summary."""
        if self.reason == "missing":
            return f"{self.file}: file is missing"
        if self.reason == "truncated":
            return (
                f"{self.file}: {self.actual_nbytes} bytes on disk, "
                f"manifest says {self.expected_nbytes}"
            )
        return f"{self.file}: checksum mismatch"


@dataclass
class StoreVerifyResult:
    """Outcome of re-hashing every chunk against the manifest."""

    chunks_checked: int = 0
    bytes_verified: int = 0
    bad_chunks: List[BadChunk] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every chunk matched its recorded checksum and size."""
        return not self.bad_chunks

    def describe(self) -> str:
        """One-line human summary for the CLI."""
        if self.ok:
            return f"ok: {self.chunks_checked} chunks, {self.bytes_verified} bytes verified"
        problems = "; ".join(bad.describe() for bad in self.bad_chunks)
        return f"FAILED ({len(self.bad_chunks)} of {self.chunks_checked} chunks): {problems}"


def verify_chunk_file(store_dir: PathLike, info: Manifest) -> Optional[BadChunk]:
    """Check one chunk file against its index entry; ``None`` when sound."""
    path = Path(store_dir) / info["file"]
    if not path.is_file():
        return BadChunk(info["file"], "missing", info["nbytes"], 0)
    digest = hashlib.sha256()
    read = 0
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
            read += len(block)
    if read != info["nbytes"]:
        return BadChunk(info["file"], "truncated", info["nbytes"], read)
    if digest.hexdigest() != info["sha256"]:
        return BadChunk(info["file"], "corrupt", info["nbytes"], read)
    return None


class TableWriter:
    """Incrementally write one store directory.

    ``append`` takes column batches of any length (column -> array in
    the schema's dtypes); the writer buffers at most ``chunk_rows`` rows
    before flushing a chunk, then journals.  ``close`` flushes the tail
    and writes the manifest.  ``header`` holds the schema-specific
    top-level manifest keys; typed writers may update it until
    ``close``, and every journal records it as of its flush.
    """

    def __init__(
        self,
        path: PathLike,
        schema: Schema,
        chunk_rows: int,
        header: Optional[Manifest] = None,
        overwrite: bool = False,
    ) -> None:
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        self.path = Path(path)
        self.schema = schema
        self.chunk_rows = int(chunk_rows)
        self.header: Manifest = dict(header or {})
        #: Populated by :meth:`close`.
        self.manifest: Optional[Manifest] = None
        self._pending: List[Columns] = []
        self._pending_rows = 0
        self._chunks: List[Manifest] = []
        self._closed = False
        self.path.mkdir(parents=True, exist_ok=True)
        manifest_file, journal_file = manifest_path(self.path), journal_path(self.path)
        if not overwrite:
            for existing, what in (
                (manifest_file, "a store"),
                (journal_file, "a crashed writer's journal (repair or overwrite it)"),
            ):
                if existing.exists():
                    raise StoreError(
                        f"{self.path!s} already holds {what} "
                        "(pass overwrite=True to replace it)"
                    )
        # Without a manifest or journal any chunk file here is unindexed
        # debris; with overwrite, every old chunk goes with the old store.
        for stale in (manifest_file, journal_file, *sorted(self.path.glob("chunk-*.bin"))):
            stale.unlink(missing_ok=True)

    @property
    def rows_written(self) -> int:
        """Rows already flushed to chunk files."""
        return sum(info["rows"] for info in self._chunks)

    def append(self, columns: Mapping[str, np.ndarray]) -> None:
        """Queue a batch (column -> equal-length array; any length)."""
        if self._closed:
            raise StoreError("writer is closed")
        batch = {name: columns[name] for name, _ in self.schema.columns}
        rows = len(batch[self.schema.columns[0][0]])
        if rows == 0:
            return
        self._pending.append(batch)
        self._pending_rows += rows
        while self._pending_rows >= self.chunk_rows:
            self._flush(self.chunk_rows)

    def _flush(self, rows: int) -> None:
        """Write the first ``rows`` buffered rows as the next chunk."""
        pieces = self._pending
        merged = {
            name: np.concatenate([piece[name] for piece in pieces])
            if len(pieces) > 1
            else pieces[0][name]
            for name, _ in self.schema.columns
        }
        self._pending_rows -= rows
        self._pending = []
        if self._pending_rows:
            self._pending.append({name: array[rows:] for name, array in merged.items()})
        head = {name: array[:rows] for name, array in merged.items()}
        path = self.path / chunk_filename(len(self._chunks))
        self._chunks.append(write_chunk(path, self.schema, head))
        # Journal only after the chunk file is complete: a writer killed
        # mid-stream leaves the journal plus at most one torn chunk.
        write_json(journal_path(self.path), self._manifest(journal=True))

    def _manifest(self, journal: bool = False) -> Manifest:
        manifest = dict(self.header)
        manifest.update(
            format=self.schema.format + (JOURNAL_SUFFIX if journal else ""),
            version=self.schema.version,
            columns=self.schema.dtypes,
            total_rows=self.rows_written,
            chunks=list(self._chunks),
        )
        if journal:
            manifest["chunk_rows"] = self.chunk_rows
        return manifest

    def close(self) -> Manifest:
        """Flush the tail chunk, write the manifest atomically, drop the journal."""
        if self._closed:
            raise StoreError("writer is already closed")
        if self._pending_rows:
            self._flush(self._pending_rows)
        manifest = self._manifest()
        write_json(manifest_path(self.path), manifest)
        journal_path(self.path).unlink(missing_ok=True)
        self._closed = True
        self.manifest = manifest
        return manifest

    def __enter__(self) -> "TableWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        # Only finalize a clean exit; a raised exception leaves the
        # journal, not a manifest, so the directory is never mistaken
        # for a complete store.
        if exc_type is None and not self._closed:
            self.close()


class Table:
    """One opened store directory (read-only), validated against ``schema``.

    Chunk columns are memory maps of the chunk files: they keep their
    file mapped while they live, so copy (``np.array(column)``) anything
    that must outlive the store directory.
    """

    def __init__(self, path: PathLike, schema: Schema) -> None:
        self.path = Path(path)
        self.schema = schema
        if not manifest_path(path).is_file():
            raise StoreError(f"no {schema.format} at {path!s} (missing {MANIFEST_NAME})")
        self.manifest = _check_manifest(_read_json(manifest_path(path)), schema)
        for info in self.manifest["chunks"]:
            if not (self.path / info["file"]).is_file():
                raise StoreError(f"store at {path!s} is missing chunk file {info['file']}")
        #: How many chunks have been mapped (tests use this to prove
        #: range pruning skips chunks).
        self.chunks_opened = 0

    def __len__(self) -> int:
        return int(self.manifest["total_rows"])

    @property
    def num_chunks(self) -> int:
        """Number of chunk files."""
        return len(self.manifest["chunks"])

    @property
    def chunk_infos(self) -> Tuple[Manifest, ...]:
        """The manifest's per-chunk index entries."""
        return tuple(self.manifest["chunks"])

    def chunk_columns(self, index: int) -> Columns:
        """The ``index``-th chunk's columns, memory-mapped (zero-copy)."""
        info = self.manifest["chunks"][index]
        path = self.path / info["file"]
        size = path.stat().st_size if path.is_file() else 0
        if size != info["nbytes"]:
            raise StoreError(
                f"chunk {info['file']}: {size} bytes on disk, manifest says {info['nbytes']}"
            )
        mapped = np.memmap(path, dtype=np.uint8, mode="r")
        rows, offset, columns = info["rows"], 0, {}
        for name, dtype in self.schema.columns:
            columns[name] = np.frombuffer(mapped, dtype=dtype, count=rows, offset=offset)
            offset += rows * np.dtype(dtype).itemsize
        self.chunks_opened += 1
        return columns

    def iter_chunks(self) -> Iterator[Columns]:
        """Each chunk's columns in order, one mapped chunk at a time."""
        for index in range(self.num_chunks):
            yield self.chunk_columns(index)

    def column(self, name: str) -> np.ndarray:
        """One column concatenated across all chunks (copies into memory)."""
        if name not in self.schema.dtypes:
            raise KeyError(f"unknown {self.schema.format} column {name!r}")
        pieces = [self.chunk_columns(index)[name] for index in range(self.num_chunks)]
        if not pieces:
            return np.empty(0, dtype=self.schema.dtypes[name])
        return np.concatenate(pieces)

    def verify(self, strict: bool = True) -> StoreVerifyResult:
        """Re-hash every chunk file against the manifest checksums.

        ``strict=True`` raises :class:`StoreError` on the first problem;
        ``strict=False`` surveys every chunk into the result instead.
        """
        result = StoreVerifyResult()
        for info in self.manifest["chunks"]:
            result.chunks_checked += 1
            bad = verify_chunk_file(self.path, info)
            if bad is None:
                result.bytes_verified += info["nbytes"]
            elif strict:
                raise StoreError(f"chunk {bad.describe()}")
            else:
                result.bad_chunks.append(bad)
        return result
