"""The shared chunked container, checked once per schema: manifest
validation, chunk damage, overwrite and killed-writer behaviour are the
same code for trace, span and fleet stores."""

import json
import os

import pytest

import repro.store.table as table
from repro.store import (
    MANIFEST_NAME,
    StoreError,
    chunk_filename,
    journal_path,
    manifest_path,
    repair,
)

from .kinds import KINDS, trace_rows

ROWS = 50
CHUNK_ROWS = 10

pytestmark = pytest.mark.parametrize("kind", KINDS, ids=str)


@pytest.fixture
def packed(kind, tmp_path):
    path = tmp_path / "store"
    kind.pack(path, ROWS, CHUNK_ROWS)
    return path


def _edit_manifest(path, edit):
    manifest = json.loads(manifest_path(path).read_text())
    edit(manifest)
    manifest_path(path).write_text(json.dumps(manifest))


class Killed(Exception):
    """Stands in for the signal that kills a writer mid-stream."""


def _kill_after(monkeypatch, chunks):
    """Make the writer die while writing chunk number ``chunks``."""
    written = []
    real = table.write_chunk

    def dying(path, schema, columns):
        if len(written) == chunks:
            path.write_bytes(b"\x7f" * 13)  # the torn chunk the kill leaves
            raise Killed()
        written.append(path.name)
        return real(path, schema, columns)

    monkeypatch.setattr(table, "write_chunk", dying)


def _crash(kind, path, monkeypatch, chunks=2):
    _kill_after(monkeypatch, chunks)
    with pytest.raises(Killed):
        kind.pack(path, ROWS, CHUNK_ROWS)
    monkeypatch.undo()
    assert journal_path(path).is_file()
    assert not manifest_path(path).exists()


class TestManifestValidation:
    def test_round_trip(self, kind, packed):
        store = kind.open(packed)
        assert len(store) == ROWS
        assert store.num_chunks == ROWS // CHUNK_ROWS
        assert store.verify().ok

    def test_missing_store(self, kind, tmp_path):
        with pytest.raises(StoreError, match=f"no .* {MANIFEST_NAME}"):
            kind.open(tmp_path / "absent")

    def test_corrupt_manifest(self, kind, packed):
        manifest_path(packed).write_text("{not json")
        with pytest.raises(StoreError, match="corrupt"):
            kind.open(packed)

    def test_foreign_format(self, kind, packed):
        _edit_manifest(packed, lambda m: m.update(format="someone-elses-store"))
        with pytest.raises(StoreError, match="not a"):
            kind.open(packed)

    def test_other_schema_is_foreign(self, kind, packed):
        for other in KINDS:
            if other is not kind:
                with pytest.raises(StoreError, match="not a"):
                    other.open(packed)

    def test_wrong_version(self, kind, packed):
        _edit_manifest(packed, lambda m: m.update(version=99))
        with pytest.raises(StoreError, match="version"):
            kind.open(packed)

    def test_schema_drift(self, kind, packed):
        def drift(manifest):
            column = sorted(manifest["columns"])[0]
            manifest["columns"][column] = "<i2"

        _edit_manifest(packed, drift)
        with pytest.raises(StoreError, match="schema"):
            kind.open(packed)

    def test_total_rows_mismatch(self, kind, packed):
        _edit_manifest(packed, lambda m: m.update(total_rows=999))
        with pytest.raises(StoreError, match="total_rows"):
            kind.open(packed)

    def test_missing_chunk(self, kind, packed):
        (packed / chunk_filename(1)).unlink()
        with pytest.raises(StoreError, match="missing"):
            kind.open(packed)

    def test_truncated_chunk(self, kind, packed):
        chunk = packed / chunk_filename(1)
        chunk.write_bytes(chunk.read_bytes()[:-8])
        store = kind.open(packed)
        result = store.verify(strict=False)
        assert [(bad.file, bad.reason) for bad in result.bad_chunks] == [
            (chunk.name, "truncated")
        ]
        with pytest.raises(StoreError, match="bytes on disk"):
            store.verify()
        with pytest.raises(StoreError, match="bytes on disk"):
            store.chunk_columns(1)

    def test_flipped_byte(self, kind, packed):
        chunk = packed / chunk_filename(2)
        payload = bytearray(chunk.read_bytes())
        payload[10] ^= 0xFF
        chunk.write_bytes(bytes(payload))
        with pytest.raises(StoreError, match="checksum mismatch"):
            kind.open(packed).verify()


class TestOverwrite:
    def test_refuses_a_store_without_overwrite(self, kind, packed):
        with pytest.raises(StoreError, match="already holds"):
            kind.pack(packed, 5, CHUNK_ROWS)

    def test_overwrite_removes_every_old_chunk(self, kind, packed):
        assert len(list(packed.glob("chunk-*.bin"))) == 5
        kind.pack(packed, 5, CHUNK_ROWS, overwrite=True)
        assert sorted(os.listdir(packed)) == [chunk_filename(0), MANIFEST_NAME]
        assert len(kind.open(packed)) == 5

    def test_journal_only_directory_refuses_without_overwrite(
        self, kind, tmp_path, monkeypatch
    ):
        path = tmp_path / "store"
        _crash(kind, path, monkeypatch)
        with pytest.raises(StoreError, match="journal"):
            kind.pack(path, 5, CHUNK_ROWS)
        kind.pack(path, 5, CHUNK_ROWS, overwrite=True)
        assert sorted(os.listdir(path)) == [chunk_filename(0), MANIFEST_NAME]


class TestKilledWriter:
    def test_repair_finalizes_the_journal_for_the_typed_reader(
        self, kind, tmp_path, monkeypatch
    ):
        clean = tmp_path / "clean"
        kind.pack(clean, ROWS, CHUNK_ROWS)
        crashed = tmp_path / "crashed"
        _crash(kind, crashed, monkeypatch, chunks=2)

        report = repair(crashed)
        assert report.used_journal
        assert report.quarantined == [chunk_filename(2)]
        assert report.total_rows == 2 * CHUNK_ROWS
        store = kind.open(crashed)
        assert len(store) == 2 * CHUNK_ROWS and store.verify().ok
        for index in range(2):
            name = chunk_filename(index)
            assert (crashed / name).read_bytes() == (clean / name).read_bytes()
        # The journal carried the header, so the repaired manifest holds
        # every header key a clean store has.
        repaired = json.loads(manifest_path(crashed).read_text())
        complete = json.loads(manifest_path(clean).read_text())
        assert set(complete) - set(repaired) <= {"request_summary"}

    def test_repair_from_source_is_trace_only(self, kind, packed):
        if kind.name == "trace":
            assert repair(packed, source=trace_rows(ROWS)).total_rows == ROWS
        else:
            with pytest.raises(StoreError, match="only trace stores"):
                repair(packed, source=trace_rows(ROWS))
