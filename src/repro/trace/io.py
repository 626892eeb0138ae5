"""Reading and writing traces as CSV files.

The on-disk format is one header line, ``#``-prefixed metadata lines, then
one row per request::

    # name=Twitter
    # seed=7
    arrival_us,lba,size,op,service_start_us,finish_us
    0.0,4096,4096,W,0.0,1385.0
    ...

Empty ``service_start_us``/``finish_us`` fields mean the trace has not been
replayed on a device.

Metadata keys and values are escaped so that the line-oriented header
survives arbitrary strings: backslash, newline and carriage return are
written as ``\\\\``, ``\\n`` and ``\\r`` in both, and ``=`` is escaped as
``\\=`` in *keys* (the key/value split is the first unescaped ``=``, so
values may contain ``=`` verbatim, as they always could).  Files written
before escaping existed contain no backslashes and parse unchanged.

Both directions work on the trace's columns: the writer renders whole
columns (``repr`` per float via ``.tolist()``, bulk string joins), and
the reader splits the body into column lists and hands the resulting
:class:`~repro.trace.columns.TraceColumns` to :meth:`Trace.from_columns`,
which checks each row as ``Request`` does and restores arrival order.
The emitted bytes are identical to a per-request ``csv`` module writer
(header lines end ``\\n``, data rows end ``\\r\\n``, floats are
``repr``-rendered).
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Dict, Iterable, List, TextIO, Tuple, Union

import numpy as np

from .columns import FLAG_HAS_FINISH, FLAG_HAS_SERVICE, TraceColumns
from .record import Op
from .trace import Trace

_FIELDS = ["arrival_us", "lba", "size", "op", "service_start_us", "finish_us"]
_HEADER = ",".join(_FIELDS)


# -- metadata escaping --------------------------------------------------------


def _escape_value(text: str) -> str:
    """Make ``text`` safe for one ``# key=value`` header line."""
    return (
        text.replace("\\", "\\\\").replace("\n", "\\n").replace("\r", "\\r")
    )


def _escape_key(text: str) -> str:
    """Like :func:`_escape_value`, additionally protecting ``=``."""
    return _escape_value(text).replace("=", "\\=")


def _unescape(text: str) -> str:
    """Invert :func:`_escape_key` / :func:`_escape_value`."""
    if "\\" not in text:
        return text
    out: List[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt == "r":
                out.append("\r")
            else:  # ``\\\\``, ``\\=`` and any future escape: literal char
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _split_metadata(line: str) -> Tuple[str, str]:
    """Split ``key=value`` at the first *unescaped* ``=``.

    Returns ``(raw_key, raw_value)`` still escaped; ``("", line)`` when no
    unescaped ``=`` exists (malformed line -- ignored by the reader, which
    matches the old ``partition`` behaviour for ``=``-less lines).
    """
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch == "\\":
            i += 2
            continue
        if ch == "=":
            return line[:i], line[i + 1 :]
        i += 1
    return "", line


# -- writing ------------------------------------------------------------------


def write_trace(trace: Trace, destination: Union[str, Path, TextIO]) -> None:
    """Write ``trace`` to ``destination`` (path or open text file)."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", newline="") as handle:
            _write(trace, handle)
    else:
        _write(trace, destination)


def format_header(name: str, metadata: Dict[str, str]) -> str:
    """The metadata block plus column-header line (written once per file)."""
    lines = [f"# name={_escape_value(name)}\n"]
    for key, value in sorted(metadata.items()):
        lines.append(f"# {_escape_key(key)}={_escape_value(str(value))}\n")
    lines.append(_HEADER + "\r\n")
    return "".join(lines)


def format_rows(columns: TraceColumns) -> str:
    """One chunk of CSV body text, vectorized over the columns.

    Every field is a number or ``R``/``W`` -- never quoted -- so a bulk
    string join produces byte-identical output to ``csv.writer`` (which
    also terminates rows with ``\\r\\n``).
    """
    rows = len(columns)
    if rows == 0:
        return ""
    arrival = [repr(v) for v in columns.arrival_us.tolist()]
    lba = [str(v) for v in columns.lba.tolist()]
    size = [str(v) for v in columns.size.tolist()]
    op = ["W" if v else "R" for v in columns.op.tolist()]
    has_service = (columns.flags & FLAG_HAS_SERVICE) != 0
    has_finish = (columns.flags & FLAG_HAS_FINISH) != 0
    service = [
        repr(v) if present else ""
        for v, present in zip(columns.service_start_us.tolist(), has_service.tolist())
    ]
    finish = [
        repr(v) if present else ""
        for v, present in zip(columns.complete_us.tolist(), has_finish.tolist())
    ]
    return "".join(
        f"{arrival[i]},{lba[i]},{size[i]},{op[i]},{service[i]},{finish[i]}\r\n"
        for i in range(rows)
    )


def _write(trace: Trace, handle: TextIO) -> None:
    handle.write(format_header(trace.name, trace.metadata))
    handle.write(format_rows(trace.columns()))


# -- reading ------------------------------------------------------------------


def read_trace(source: Union[str, Path, TextIO]) -> Trace:
    """Read a trace previously written by :func:`write_trace`."""
    if isinstance(source, (str, Path)):
        with open(source, newline="") as handle:
            return _read(handle, default_name=Path(source).stem)
    return _read(source, default_name="trace")


def _columns_from_rows(rows: Iterable[List[str]]) -> TraceColumns:
    """Parse CSV body rows (after the header line), split into fields."""
    arrival: List[float] = []
    lba: List[int] = []
    size: List[int] = []
    op: List[int] = []
    service: List[float] = []
    finish: List[float] = []
    flags: List[int] = []
    nan = float("nan")
    for fields in rows:
        if len(fields) != 6:
            raise ValueError(f"malformed trace row: {','.join(fields)!r}")
        arrival.append(float(fields[0]))
        lba.append(int(fields[1]))
        size.append(int(fields[2]))
        op.append(1 if Op.parse(fields[3]) is Op.WRITE else 0)
        flag = 0
        if fields[4]:
            service.append(float(fields[4]))
            flag |= FLAG_HAS_SERVICE
        else:
            service.append(nan)
        if fields[5]:
            finish.append(float(fields[5]))
            flag |= FLAG_HAS_FINISH
        else:
            finish.append(nan)
        flags.append(flag)
    return TraceColumns(
        np.array(arrival, dtype=np.float64),
        np.array(service, dtype=np.float64),
        np.array(finish, dtype=np.float64),
        np.array(lba, dtype=np.int64),
        np.array(size, dtype=np.int64),
        np.array(op, dtype=np.uint8),
        np.array(flags, dtype=np.uint8),
    )


def _read(handle: TextIO, default_name: str) -> Trace:
    name = default_name
    metadata: Dict[str, str] = {}
    body_lines: List[str] = []
    for line in handle:
        stripped = line.strip()
        if stripped.startswith("#"):
            raw_key, raw_value = _split_metadata(stripped.lstrip("# "))
            key, value = _unescape(raw_key), _unescape(raw_value)
            if key == "name":
                name = value
            elif key:
                metadata[key] = value
        elif stripped:
            body_lines.append(line)
    if not body_lines:
        raise ValueError("trace file has no header row")
    header = body_lines[0].rstrip("\r\n")
    if header.split(",") != _FIELDS:
        reader = csv.reader(io.StringIO(body_lines[0]))
        raise ValueError(f"unexpected trace header: {next(reader, None)}")
    rows = body_lines[1:]
    if any('"' in line for line in rows):  # pragma: no cover - hand-made files
        fields = [row for row in csv.reader(io.StringIO("".join(rows))) if row]
    else:
        fields = [line.rstrip("\r\n").split(",") for line in rows]
    return Trace.from_columns(name, _columns_from_rows(fields), metadata=metadata)


def dumps(trace: Trace) -> str:
    """Serialize ``trace`` to a CSV string."""
    buffer = io.StringIO()
    _write(trace, buffer)
    return buffer.getvalue()


def loads(text: str) -> Trace:
    """Parse a trace from a CSV string produced by :func:`dumps`."""
    return _read(io.StringIO(text), default_name="trace")
