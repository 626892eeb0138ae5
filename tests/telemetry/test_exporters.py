"""Chrome-trace, flame-summary and span-store exporters.

The span store's manifest validation, damage detection and overwrite
guard are the shared container's, checked for every schema in
``tests/store/test_container.py``.
"""

import json

import pytest

from repro.emmc import EmmcDevice, small_four_ps
from repro.sim import Host
from repro.store import manifest_path
from repro.telemetry import (
    Telemetry,
    chrome_trace,
    chrome_trace_events,
    chrome_trace_json,
    flame_summary,
    open_span_store,
    pack_spans,
    span_paths,
)
from repro.trace import Op, Request, SECTOR, Trace


def _trace(num=30):
    return Trace(
        "exporters",
        [
            Request(
                arrival_us=i * 200.0,
                lba=(i % 16) * SECTOR,
                size=2 * SECTOR,
                op=Op.WRITE if i % 3 else Op.READ,
            )
            for i in range(num)
        ],
    )


@pytest.fixture(scope="module")
def recorded():
    sink = Telemetry()
    sink.meta["app"] = "exporters"
    device = EmmcDevice(small_four_ps(), telemetry=sink)
    Host(device).replay(_trace())
    return sink


class TestChromeTrace:
    def test_metadata_precedes_records(self, recorded):
        events = chrome_trace_events(recorded)
        phases = [event["ph"] for event in events]
        last_meta = max(i for i, ph in enumerate(phases) if ph == "M")
        first_record = min(i for i, ph in enumerate(phases) if ph != "M")
        assert last_meta < first_record
        assert events[0]["name"] == "process_name"

    def test_span_counts_and_parent_links(self, recorded):
        events = chrome_trace_events(recorded)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(recorded.spans)
        by_id = {e["args"]["id"]: e for e in complete}
        for event in complete:
            parent = event["args"].get("parent")
            if parent is not None:
                assert parent in by_id

    def test_kernel_events_ride_the_kernel_track(self, recorded):
        events = chrome_trace_events(recorded)
        kernel = [e for e in events if e.get("cat") == "kernel" and e["ph"] == "i"]
        assert len(kernel) == len(recorded.kernel_events)
        tids = {e["tid"] for e in kernel}
        assert len(tids) == 1

    def test_json_is_deterministic_and_loads(self, recorded):
        first = chrome_trace_json(recorded)
        assert first == chrome_trace_json(recorded)
        document = json.loads(first)
        assert document["metadata"] == {"app": "exporters"}
        assert document["displayTimeUnit"] == "ms"
        assert len(document["traceEvents"]) > len(recorded.spans)

    def test_writes_to_path_and_file_object(self, recorded, tmp_path):
        target = tmp_path / "trace.json"
        chrome_trace(recorded, str(target))
        import io

        buffer = io.StringIO()
        chrome_trace(recorded, buffer)
        assert target.read_text() == buffer.getvalue()
        assert target.read_text().endswith("\n")


class TestFlame:
    def test_paths_partition_every_span(self, recorded):
        aggregated = span_paths(recorded)
        assert sum(count for count, _ in aggregated.values()) == len(
            recorded.spans
        )

    def test_summary_header_and_rendering(self, recorded):
        text = flame_summary(recorded)
        header = text.splitlines()[0]
        assert header.startswith("flame:")
        assert "paths" in header
        assert "write" in text or "read" in text

    def test_empty_sink_renders(self):
        assert flame_summary(Telemetry()) == "flame: no spans recorded"

    def test_max_paths_truncates(self, recorded):
        text = flame_summary(recorded, max_paths=1)
        assert "more paths" in text


class TestSpanStore:
    def test_round_trip_and_verify(self, recorded, tmp_path):
        store_dir = tmp_path / "spans"
        manifest = pack_spans(recorded, str(store_dir), chunk_rows=64)
        assert manifest["total_rows"] == len(recorded.spans)
        store = open_span_store(str(store_dir))
        store.verify()
        assert len(store) == len(recorded.spans)
        rows = 0
        for chunk in store.iter_chunks():
            assert len(chunk["parent"]) == len(chunk["dur_us"])
            rows += len(chunk["parent"])
        assert rows == len(recorded.spans)
        # Columns decode back to the original tuples.
        chunk = next(store.iter_chunks())
        name, cat, track, parent, start, dur = recorded.spans[0]
        assert store.names[chunk["name_id"][0]] == name
        assert store.cats[chunk["cat_id"][0]] == cat
        assert store.tracks[chunk["track_id"][0]] == track
        assert chunk["parent"][0] == parent
        assert chunk["start_us"][0] == start and chunk["dur_us"][0] == dur

    def test_totals_by_name_matches_in_memory(self, recorded, tmp_path):
        store_dir = tmp_path / "spans"
        pack_spans(recorded, str(store_dir), chunk_rows=32)
        store = open_span_store(str(store_dir))
        totals = store.totals_by_name()
        from repro.telemetry import S_DUR, S_NAME

        expected = {}
        for span in recorded.spans:
            count, total = expected.get(span[S_NAME], (0, 0.0))
            expected[span[S_NAME]] = (count + 1, total + span[S_DUR])
        assert set(totals) == set(expected)
        for name, (count, _) in expected.items():
            assert totals[name][0] == count

    def test_manifest_is_deterministic(self, recorded, tmp_path):
        a = pack_spans(recorded, str(tmp_path / "a"))
        b = pack_spans(recorded, str(tmp_path / "b"))
        assert a == b
        assert manifest_path(tmp_path / "a").read_bytes() == (
            manifest_path(tmp_path / "b").read_bytes()
        )
