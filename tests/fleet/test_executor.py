"""Executor tests: sharding, bit-identical parallelism, re-simulation."""

import pytest

from repro.fleet import (
    FleetScenario,
    open_fleet_store,
    plan_shards,
    run_fleet,
    simulate_device,
)
from repro.store import manifest_path


def _scenario(**overrides):
    base = dict(
        devices=12,
        name="exec-test",
        seed=5,
        requests_per_device=25,
        apps={"Twitter": 1.0, "Music": 1.0},
        configs={"small-4PS": 1.0},
        fault_profiles={"none": 5.0, "flaky": 1.0},
        rate_factor_range=(0.5, 2.0),
    )
    base.update(overrides)
    return FleetScenario(**base)


def _store_bytes(path):
    files = sorted(p.name for p in path.iterdir())
    return {name: (path / name).read_bytes() for name in files}


class TestPlanShards:
    def test_covers_population_contiguously(self):
        shards = plan_shards(10, 4)
        assert shards == [(0, 4), (4, 8), (8, 10)]

    def test_single_shard_when_large(self):
        assert plan_shards(3, 100) == [(0, 3)]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            plan_shards(0, 4)
        with pytest.raises(ValueError):
            plan_shards(4, 0)


class TestRunFleet:
    def test_serial_run_packs_every_device(self, tmp_path):
        result = run_fleet(_scenario(), tmp_path / "fleet", jobs=1, shard_devices=5)
        assert result.devices == 12
        assert result.shards == 3
        store = open_fleet_store(tmp_path / "fleet")
        store.verify()
        assert store.column("device_index").tolist() == list(range(12))
        assert (store.column("requests") == 25).all()

    def test_jobs_do_not_change_a_single_byte(self, tmp_path):
        scenario = _scenario()
        run_fleet(scenario, tmp_path / "j1", jobs=1, shard_devices=3)
        run_fleet(scenario, tmp_path / "j3", jobs=3, shard_devices=3)
        assert _store_bytes(tmp_path / "j1") == _store_bytes(tmp_path / "j3")

    def test_shard_size_does_not_change_a_single_byte(self, tmp_path):
        scenario = _scenario()
        run_fleet(scenario, tmp_path / "s3", jobs=1, shard_devices=3)
        run_fleet(scenario, tmp_path / "s7", jobs=2, shard_devices=7)
        assert _store_bytes(tmp_path / "s3") == _store_bytes(tmp_path / "s7")

    def test_request_summary_lands_in_manifest(self, tmp_path):
        result = run_fleet(_scenario(), tmp_path / "fleet", jobs=1)
        summary = open_fleet_store(tmp_path / "fleet").request_summary
        assert summary["size_stats"]["num_requests"] == 12 * 25
        assert result.request_summary["size_stats"].num_requests == 12 * 25
        assert set(summary) == {
            "size_stats", "size_distribution", "response_distribution",
        }

    def test_fleet_summary_equals_single_device_sum(self, tmp_path):
        scenario = _scenario(devices=3, fault_profiles={"none": 1.0})
        result = run_fleet(scenario, tmp_path / "fleet", jobs=1)
        per_device = sum(
            len(simulate_device(scenario, i).columns) for i in range(3)
        )
        assert result.request_summary["size_stats"].num_requests == per_device

    def test_rejects_bad_jobs(self, tmp_path):
        with pytest.raises(ValueError, match="jobs"):
            run_fleet(_scenario(), tmp_path / "fleet", jobs=0)

    def test_wall_sink_records_fleet_and_shard_spans(self, tmp_path):
        from repro.telemetry import Telemetry

        sink = Telemetry()
        run_fleet(
            _scenario(), tmp_path / "fleet", jobs=1, shard_devices=4, wall_sink=sink
        )
        assert len(sink.spans_named("fleet")) == 1
        shard_spans = [s for s in range(len(sink)) if s not in sink.spans_named("fleet")]
        assert len(shard_spans) == 3  # one per shard

    def test_telemetry_never_affects_store_bytes(self, tmp_path):
        from repro.telemetry import Telemetry

        scenario = _scenario(devices=6)
        run_fleet(scenario, tmp_path / "plain", jobs=1)
        run_fleet(scenario, tmp_path / "traced", jobs=1, wall_sink=Telemetry())
        assert _store_bytes(tmp_path / "plain") == _store_bytes(tmp_path / "traced")


class TestSimulateDevice:
    def test_resimulation_matches_in_fleet_rows(self, tmp_path):
        scenario = _scenario()
        run_fleet(scenario, tmp_path / "fleet", jobs=2, shard_devices=4)
        store = open_fleet_store(tmp_path / "fleet")
        for index in (0, 5, 11):
            assert simulate_device(store.scenario(), index).row == store.device_row(index)

    def test_accepts_spec_or_index(self):
        from repro.fleet import device_spec

        scenario = _scenario(devices=2)
        by_index = simulate_device(scenario, 1)
        by_spec = simulate_device(scenario, device_spec(scenario, 1))
        assert by_index.row == by_spec.row
        assert by_index.digest == by_spec.digest

    def test_digest64_is_digest_prefix(self):
        result = simulate_device(_scenario(devices=1), 0)
        assert result.row["stats_digest64"] == int(result.digest[:16], 16)

    def test_faulty_devices_report_fault_columns(self, tmp_path):
        scenario = _scenario(devices=8, fault_profiles={"flaky": 1.0})
        run_fleet(scenario, tmp_path / "fleet", jobs=1)
        store = open_fleet_store(tmp_path / "fleet")
        assert store.column("fault_events").sum() > 0


class TestManifestDeterminism:
    def test_manifest_identical_across_jobs(self, tmp_path):
        scenario = _scenario(devices=9)
        run_fleet(scenario, tmp_path / "a", jobs=1, shard_devices=2)
        run_fleet(scenario, tmp_path / "b", jobs=4, shard_devices=2)
        a = manifest_path(tmp_path / "a").read_bytes()
        b = manifest_path(tmp_path / "b").read_bytes()
        assert a == b
