"""Unit tests for the fleet store.

Manifest validation and chunk damage are the shared container's and are
checked for every schema in ``tests/store/test_container.py``.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan, corrupt_chunk, tear_chunk
from repro.fleet import (
    FleetScenario,
    FleetStore,
    FleetStoreError,
    FleetStoreWriter,
    open_fleet_store,
    run_fleet,
)
from repro.fleet.store import FLEET_COLUMNS
from repro.store import StoreError, chunk_filename, journal_path, manifest_path, repair
from repro.trace import Trace


def _scenario(devices=10):
    return FleetScenario(
        devices=devices,
        name="store-test",
        apps={"Twitter": 1.0},
        configs={"small-4PS": 1.0},
    )


def _row(index):
    """A synthetic device row with distinguishable values."""
    row = {}
    for position, (name, dtype) in enumerate(FLEET_COLUMNS):
        if name == "device_index":
            row[name] = index
        elif np.dtype(dtype).kind == "f":
            row[name] = float(index * 100 + position)
        else:
            row[name] = index * 100 + position
    return row


def _pack(path, devices=10, chunk_devices=4, request_summary=None):
    writer = FleetStoreWriter(path, _scenario(devices), chunk_devices=chunk_devices)
    writer.append_rows([_row(i) for i in range(devices)])
    writer.close(request_summary=request_summary)
    return writer


class TestWriter:
    def test_chunks_by_device_count(self, tmp_path):
        writer = _pack(tmp_path / "f", devices=10, chunk_devices=4)
        assert [c["rows"] for c in writer.manifest["chunks"]] == [4, 4, 2]
        assert writer.rows_written == 10

    def test_rejects_out_of_order_rows(self, tmp_path):
        writer = FleetStoreWriter(tmp_path / "f", _scenario())
        writer.append_row(_row(0))
        with pytest.raises(FleetStoreError, match="device-index order"):
            writer.append_row(_row(2))

    def test_rejects_missing_columns(self, tmp_path):
        writer = FleetStoreWriter(tmp_path / "f", _scenario())
        row = _row(0)
        del row["energy_uj"]
        with pytest.raises(FleetStoreError, match="missing columns"):
            writer.append_row(row)

    def test_refuses_to_clobber_without_overwrite(self, tmp_path):
        _pack(tmp_path / "f")
        with pytest.raises(FleetStoreError, match="already holds"):
            FleetStoreWriter(tmp_path / "f", _scenario())
        FleetStoreWriter(tmp_path / "f", _scenario(), overwrite=True)

    def test_crashed_write_leaves_no_manifest(self, tmp_path):
        with pytest.raises(RuntimeError, match="boom"):
            with FleetStoreWriter(tmp_path / "f", _scenario()) as writer:
                writer.append_row(_row(0))
                raise RuntimeError("boom")
        assert not manifest_path(tmp_path / "f").exists()
        with pytest.raises(FleetStoreError, match="no repro-fleet-store"):
            open_fleet_store(tmp_path / "f")

    def test_context_manager_finalizes_clean_exit(self, tmp_path):
        with FleetStoreWriter(tmp_path / "f", _scenario(devices=1)) as writer:
            writer.append_row(_row(0))
        assert len(open_fleet_store(tmp_path / "f")) == 1

    def test_manifest_has_no_timestamps_and_is_byte_stable(self, tmp_path):
        _pack(tmp_path / "a")
        _pack(tmp_path / "b")
        a = manifest_path(tmp_path / "a").read_bytes()
        b = manifest_path(tmp_path / "b").read_bytes()
        assert a == b


class TestReader:
    def test_round_trips_every_row(self, tmp_path):
        _pack(tmp_path / "f", devices=10, chunk_devices=4)
        store = open_fleet_store(tmp_path / "f")
        assert len(store) == 10
        assert store.num_chunks == 3
        for index in range(10):
            assert store.device_row(index) == _row(index)

    def test_device_row_rejects_out_of_range(self, tmp_path):
        _pack(tmp_path / "f", devices=3)
        store = open_fleet_store(tmp_path / "f")
        with pytest.raises(IndexError):
            store.device_row(3)

    def test_column_concatenates_chunks(self, tmp_path):
        _pack(tmp_path / "f", devices=10, chunk_devices=3)
        store = open_fleet_store(tmp_path / "f")
        assert store.column("device_index").tolist() == list(range(10))
        with pytest.raises(KeyError):
            store.column("nope")

    def test_iter_chunks_streams_in_order(self, tmp_path):
        _pack(tmp_path / "f", devices=10, chunk_devices=4)
        store = open_fleet_store(tmp_path / "f")
        seen = np.concatenate([c["device_index"] for c in store.iter_chunks()])
        assert seen.tolist() == list(range(10))

    def test_scenario_round_trips_through_manifest(self, tmp_path):
        _pack(tmp_path / "f")
        assert open_fleet_store(tmp_path / "f").scenario() == _scenario()

    def test_request_summary_round_trips(self, tmp_path):
        _pack(tmp_path / "f", request_summary={"size_stats": {"num_requests": 7}})
        store = open_fleet_store(tmp_path / "f")
        assert store.request_summary == {"size_stats": {"num_requests": 7}}

    def test_string_tables_in_mix_order(self, tmp_path):
        writer = FleetStoreWriter(
            tmp_path / "f",
            FleetScenario(
                devices=1,
                apps={"WebBrowsing": 1.0, "Twitter": 1.0},
                configs={"small-HPS": 1.0, "small-4PS": 1.0},
            ),
        )
        writer.append_row(_row(0))
        writer.close()
        store = open_fleet_store(tmp_path / "f")
        assert store.apps == ["WebBrowsing", "Twitter"]
        assert store.configs == ["small-HPS", "small-4PS"]


class TestCrashConsistency:
    def test_killed_writer_is_refused_then_repaired(self, tmp_path):
        path = tmp_path / "f"
        with pytest.raises(RuntimeError, match="boom"):
            with FleetStoreWriter(path, _scenario(10), chunk_devices=4) as writer:
                writer.append_rows([_row(i) for i in range(10)])
                raise RuntimeError("boom")
        assert journal_path(path).is_file() and not manifest_path(path).exists()
        with pytest.raises(FleetStoreError, match="journal"):
            run_fleet(_scenario(10), path)

        report = repair(path)
        assert report.used_journal and report.total_rows == 8
        store = FleetStore(path)
        assert len(store) == 8
        assert store.request_summary is None
        assert store.verify().ok
        assert store.scenario() == _scenario(10)
        assert [store.device_row(i) for i in range(8)] == [_row(i) for i in range(8)]

    def test_store_damage_tools_work_on_fleet_stores(self, tmp_path):
        path = tmp_path / "f"
        _pack(path, devices=10, chunk_devices=4)
        damage = corrupt_chunk(path, FaultPlan(seed=3), chunk_index=2)
        result = FleetStore(path).verify(strict=False)
        assert [(bad.file, bad.reason) for bad in result.bad_chunks] == [
            (damage.file, "corrupt")
        ]
        with pytest.raises(StoreError, match="only trace stores"):
            repair(path, source=Trace("other", []))
        report = repair(path)
        assert report.dropped_chunks == [chunk_filename(2)]
        assert len(FleetStore(path)) == 8

        tear_chunk(path, chunk_index=0)
        with pytest.raises(StoreError, match="mid-stream"):
            repair(path)
