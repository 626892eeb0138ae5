"""Unit and integration tests for the trace store.

Manifest validation and chunk damage are the shared container's and are
checked for every schema in ``test_container.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.store import (
    DEFAULT_CHUNK_ROWS,
    MANIFEST_NAME,
    TRACE_SCHEMA,
    StoreError,
    StoreWriter,
    chunk_filename,
    concat_columns,
    open_store,
    pack,
)
from repro.streaming import chunked
from repro.trace import Op, Request, SECTOR, Trace
from repro.workloads import generate_trace

COLUMN_NAMES = [name for name, _ in TRACE_SCHEMA.columns]


def _trace(n=500, seed=9, name="Email"):
    return generate_trace(name, seed=seed, num_requests=n)


class TestFormat:
    def test_row_width_matches_schema(self):
        assert TRACE_SCHEMA.row_nbytes == 3 * 8 + 2 * 8 + 2 * 1

    def test_chunk_filenames_sort_lexicographically(self):
        names = [chunk_filename(i) for i in (0, 1, 9, 10, 99, 100)]
        assert names == sorted(names)


class TestPackAndOpen:
    def test_round_trip_requests_equal(self, tmp_path):
        trace = _trace(401)
        pack(trace, tmp_path / "s", chunk_rows=97)
        store = open_store(tmp_path / "s")
        assert len(store) == 401
        assert store.num_chunks == 5
        restored = store.to_trace()
        assert restored.name == trace.name
        assert restored.metadata == trace.metadata
        assert list(restored) == list(trace)

    def test_replayed_trace_round_trips_timestamps(self, tmp_path):
        from repro.workloads.collection import collect

        trace = collect("Email", seed=3, num_requests=200).trace
        pack(trace, tmp_path / "s", chunk_rows=64)
        restored = open_store(tmp_path / "s").to_trace()
        assert list(restored) == list(trace)
        assert restored.completed

    def test_empty_trace(self, tmp_path):
        pack(Trace("empty", []), tmp_path / "s")
        store = open_store(tmp_path / "s")
        assert len(store) == 0
        assert store.num_chunks == 0
        assert len(store.to_trace()) == 0

    def test_pack_is_deterministic(self, tmp_path):
        trace = _trace(300)
        pack(trace, tmp_path / "a", chunk_rows=77)
        pack(trace, tmp_path / "b", chunk_rows=77)
        manifest_a = (tmp_path / "a" / MANIFEST_NAME).read_bytes()
        manifest_b = (tmp_path / "b" / MANIFEST_NAME).read_bytes()
        assert manifest_a == manifest_b
        for info in open_store(tmp_path / "a").chunk_infos:
            assert (tmp_path / "a" / info["file"]).read_bytes() == (
                tmp_path / "b" / info["file"]
            ).read_bytes()

    def test_refuses_overwrite_without_flag(self, tmp_path):
        pack(_trace(50), tmp_path / "s")
        with pytest.raises(StoreError, match="already holds"):
            pack(_trace(50), tmp_path / "s")
        pack(_trace(60), tmp_path / "s", overwrite=True)
        assert len(open_store(tmp_path / "s")) == 60

    def test_pack_from_column_batches(self, tmp_path):
        trace = _trace(250)
        batches = list(chunked(trace.columns(), 33))
        pack(batches, tmp_path / "s", chunk_rows=40, name=trace.name,
             metadata=trace.metadata)
        assert list(open_store(tmp_path / "s").to_trace()) == list(trace)


class TestWriter:
    def test_rechunks_arbitrary_batches(self, tmp_path):
        trace = _trace(321)
        writer = StoreWriter(tmp_path / "s", name="t", chunk_rows=100)
        columns = trace.columns()
        for start, stop in [(0, 1), (1, 150), (150, 155), (155, 321)]:
            writer.append_columns(columns.select(slice(start, stop)))
        manifest = writer.close()
        assert [c["rows"] for c in manifest["chunks"]] == [100, 100, 100, 21]
        assert list(open_store(tmp_path / "s").to_trace()) == list(trace)

    def test_append_after_close_rejected(self, tmp_path):
        writer = StoreWriter(tmp_path / "s", name="t")
        writer.close()
        with pytest.raises(StoreError):
            writer.append_requests([Request(0.0, 0, 4096, Op.READ)])

    def test_crash_leaves_no_manifest(self, tmp_path):
        with pytest.raises(RuntimeError):
            with StoreWriter(tmp_path / "s", name="t") as writer:
                writer.append_requests([Request(0.0, 0, 4096, Op.READ)])
                raise RuntimeError("boom")
        assert not (tmp_path / "s" / MANIFEST_NAME).exists()
        with pytest.raises(StoreError):
            open_store(tmp_path / "s")

    def test_context_manager_closes_cleanly(self, tmp_path):
        with StoreWriter(tmp_path / "s", name="t", chunk_rows=8) as writer:
            writer.append_requests(
                [Request(float(i), i * 4096, 4096, Op.WRITE) for i in range(20)]
            )
        store = open_store(tmp_path / "s")
        assert len(store) == 20
        assert writer.manifest is not None
        assert writer.manifest["total_rows"] == 20

    def test_unsorted_stream_flagged(self, tmp_path):
        writer = StoreWriter(tmp_path / "s", name="t")
        writer.append_requests(
            [Request(5.0, 0, 4096, Op.READ), Request(1.0, 4096, 4096, Op.READ)]
        )
        assert writer.close()["arrival_sorted"] is False

    def test_sorted_across_batches_flagged_sorted(self, tmp_path):
        writer = StoreWriter(tmp_path / "s", name="t")
        writer.append_requests([Request(1.0, 0, 4096, Op.READ)])
        writer.append_requests([Request(1.0, 0, 4096, Op.READ)])  # ties allowed
        writer.append_requests([Request(2.0, 0, 4096, Op.READ)])
        assert writer.close()["arrival_sorted"] is True


class TestReader:
    def test_iter_chunks_rechunking_preserves_stream(self, tmp_path):
        trace = _trace(500)
        pack(trace, tmp_path / "s", chunk_rows=123)
        store = open_store(tmp_path / "s")
        for rows in (1, 7, 123, 200, 499, 500, 10000):
            pieces = list(store.iter_chunks(chunk_rows=rows))
            assert sum(len(p) for p in pieces) == 500
            assert all(len(p) == rows for p in pieces[:-1])
            rebuilt = concat_columns(pieces)
            np.testing.assert_array_equal(rebuilt.arrival_us,
                                          trace.columns().arrival_us)
            np.testing.assert_array_equal(rebuilt.lba, trace.columns().lba)

    def test_columns_match_source(self, tmp_path):
        trace = _trace(260)
        pack(trace, tmp_path / "s", chunk_rows=64)
        columns = open_store(tmp_path / "s").columns()
        source = trace.columns()
        for name in COLUMN_NAMES:
            np.testing.assert_array_equal(getattr(columns, name),
                                          getattr(source, name))

    def test_range_selection_prunes_chunks(self, tmp_path):
        trace = _trace(600)
        pack(trace, tmp_path / "s", chunk_rows=100)
        store = open_store(tmp_path / "s")
        infos = store.chunk_infos
        # A range strictly inside the 4th chunk's arrival span.
        start = infos[3]["min_arrival_us"]
        end = infos[3]["max_arrival_us"]
        opened_before = store.chunks_opened
        selected = store.select_arrival_range(start, end)
        assert store.chunks_opened - opened_before == len(
            store.chunks_overlapping(start, end)
        )
        assert store.chunks_opened - opened_before < store.num_chunks
        arrivals = trace.columns().arrival_us
        expected = int(np.count_nonzero((arrivals >= start) & (arrivals < end)))
        assert len(selected) == expected

    def test_range_selection_matches_mask(self, tmp_path):
        trace = _trace(400)
        pack(trace, tmp_path / "s", chunk_rows=90)
        store = open_store(tmp_path / "s")
        arrivals = trace.columns().arrival_us
        mid = float(np.median(arrivals))
        end = float(arrivals.max())
        selected = store.select_arrival_range(mid, end)
        mask = (arrivals >= mid) & (arrivals < end)
        np.testing.assert_array_equal(selected.arrival_us, arrivals[mask])

    def test_where_predicate(self, tmp_path):
        trace = _trace(300)
        pack(trace, tmp_path / "s", chunk_rows=64)
        store = open_store(tmp_path / "s")
        writes = store.where(lambda chunk: chunk.write_mask)
        assert len(writes) == int(np.count_nonzero(trace.columns().write_mask))
        assert bool(writes.op.all())


class TestDefaults:
    def test_default_chunk_rows_sane(self):
        assert DEFAULT_CHUNK_ROWS > 0
        assert DEFAULT_CHUNK_ROWS * TRACE_SCHEMA.row_nbytes < 64 * 1024 * 1024


def _pinned_trace(num=700):
    """Hand-built (not generated) so the pin survives generator changes."""
    requests = []
    for i in range(num):
        arrival = i * 12.5 + (i % 7) * 0.25
        timed = i % 2 == 0
        requests.append(
            Request(
                arrival_us=arrival,
                lba=(i * 37 % 509) * SECTOR,
                size=(1 + i % 4) * SECTOR,
                op=Op.WRITE if i % 3 else Op.READ,
                service_start_us=arrival + 3.0 if timed else None,
                finish_us=arrival + 3.0 + (i % 5) * 41.5 if timed else None,
            )
        )
    return Trace("pinned", requests, metadata={"app": "pinned", "seed": "0"})


#: sha256 of every file of the packed pinned trace, per chunk size.  The
#: trace-store format is a compatibility contract: a change to any digest
#: is a format change and needs a version bump, not a new digest.
PINNED_DIGESTS = {
    128: {
        "chunk-000000.bin": "0f55e873a37277a2894dbc922450ec3e45ab39e135e34254be631ae251ff5a83",
        "chunk-000001.bin": "9617266da52a6fb53b6b00ea19a93accbc291f27285eb67c379a2cb03c21d2f1",
        "chunk-000002.bin": "a1950b477d6290338c6c4349d03600fef4d53dae65ffa15958d4c3338e053074",
        "chunk-000003.bin": "1aa50e53385095acc638a511ae2bb396365a1c95ae6d1b2d4ef53391caa79ead",
        "chunk-000004.bin": "e7ea5e1e5f52c50b1fcd3df6cab575cc3ea1440a844972ddca709dabce48ba7c",
        "chunk-000005.bin": "bce500c17cc80b905c27f9bceba1035fd24fc4c1d7d9c99d9059638145c4e2b7",
        "manifest.json": "6366328faa87a98182b5cb70717eda83dd2a708b9e207c14e887155678bd5434",
    },
    700: {
        "chunk-000000.bin": "38930d5972358eaf9f2235992df3953ab0928312787bb704f1a1d39fcf780679",
        "manifest.json": "8cc093067a1868eba390236bc0b278e3dd02b483387f60f670324e716d885821",
    },
}


@pytest.mark.parametrize("chunk_rows", sorted(PINNED_DIGESTS))
def test_pack_bytes_are_pinned(tmp_path, chunk_rows):
    pack(_pinned_trace(), tmp_path / "s", chunk_rows=chunk_rows)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "s").iterdir())
    }
    assert digests == PINNED_DIGESTS[chunk_rows]
