"""``repro.store``: the chunked, memory-mapped, checksummed columnar table.

Every on-disk store in the repository -- request traces, telemetry
spans (:mod:`repro.telemetry.spanstore`) and fleet device rows
(:mod:`repro.fleet.store`) -- is one :class:`Table` layout declared by a
:class:`Schema`: a directory of fixed-size column-major chunk files plus
a JSON manifest holding the schema, a schema-specific header, per-chunk
row counts and SHA-256 checksums.

One mechanism serves all of them: :class:`TableWriter` re-chunks column
batches, hashes each chunk as it writes it, journals after every flush
and writes the manifest atomically on close; :class:`Table` validates a
manifest, memory-maps chunk columns and re-hashes chunks in
:meth:`Table.verify`; :func:`repair` quarantines damage and finalizes a
killed writer's journal for any schema.

The trace store (:data:`TRACE_SCHEMA`) adds the typed surface:
:func:`pack` / :class:`StoreWriter` on the write side and
:func:`open_store` / :class:`TraceStore` (re-chunking iteration,
arrival-range pruning, ``to_trace()``) on the read side.

See ``docs/trace-store.md`` for the on-disk layout and the workflow.
"""

from .repair import RepairReport, repair
from .table import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    QUARANTINE_SUFFIX,
    BadChunk,
    Schema,
    StoreError,
    StoreVerifyResult,
    Table,
    TableWriter,
    chunk_filename,
    journal_path,
    manifest_path,
    read_index,
)
from .trace import (
    DEFAULT_CHUNK_ROWS,
    TRACE_SCHEMA,
    StoreWriter,
    TraceStore,
    concat_columns,
    open_store,
    pack,
)

__all__ = [
    "BadChunk",
    "DEFAULT_CHUNK_ROWS",
    "JOURNAL_NAME",
    "MANIFEST_NAME",
    "QUARANTINE_SUFFIX",
    "RepairReport",
    "Schema",
    "StoreError",
    "StoreVerifyResult",
    "StoreWriter",
    "TRACE_SCHEMA",
    "Table",
    "TableWriter",
    "TraceStore",
    "chunk_filename",
    "concat_columns",
    "journal_path",
    "manifest_path",
    "open_store",
    "pack",
    "read_index",
    "repair",
]
