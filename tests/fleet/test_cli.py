"""CLI tests for ``repro-fleet`` (in-process via ``main``)."""

import json

import pytest

from repro.fleet import FleetScenario
from repro.fleet.cli import _parse_mix, _parse_range, main
from repro.store import manifest_path


@pytest.fixture()
def small_store(tmp_path):
    """A packed 6-device store plus its path."""
    out = tmp_path / "fleet"
    code = main([
        "run", "--devices", "6", "--requests", "20",
        "--apps", "Twitter:1,Music:1", "--configs", "small-4PS",
        "--seed", "3", "-o", str(out),
    ])
    assert code == 0
    return out


class TestParsers:
    def test_parse_mix_with_weights(self):
        assert _parse_mix("Twitter:2,Music:1") == {"Twitter": 2.0, "Music": 1.0}

    def test_parse_mix_defaults_weight_to_one(self):
        assert _parse_mix("Twitter, Music") == {"Twitter": 1.0, "Music": 1.0}

    def test_parse_mix_rejects_empty(self):
        with pytest.raises(Exception):
            _parse_mix(" , ")

    def test_parse_range(self):
        assert _parse_range("0.5:2") == [0.5, 2.0]
        with pytest.raises(Exception):
            _parse_range("abc")


class TestRun:
    def test_run_writes_a_store(self, tmp_path, capsys):
        out = tmp_path / "fleet"
        code = main([
            "run", "--devices", "3", "--requests", "10",
            "--configs", "small-4PS", "-o", str(out),
        ])
        assert code == 0
        assert manifest_path(out).exists()
        assert "simulated 3 devices" in capsys.readouterr().out

    def test_run_refuses_to_clobber(self, small_store, capsys):
        code = main([
            "run", "--devices", "2", "--requests", "20",
            "--configs", "small-4PS", "-o", str(small_store),
        ])
        assert code == 1
        assert "already holds" in capsys.readouterr().err

    def test_run_from_scenario_file(self, tmp_path, capsys):
        scenario = FleetScenario(
            devices=4, requests_per_device=15,
            apps={"Twitter": 1.0}, configs={"small-4PS": 1.0},
        )
        path = tmp_path / "scenario.json"
        path.write_text(scenario.dumps())
        code = main([
            "run", "--scenario", str(path), "--devices", "2",
            "-o", str(tmp_path / "out"),
        ])
        assert code == 0
        assert "simulated 2 devices" in capsys.readouterr().out

    def test_run_rejects_bad_scenario(self, tmp_path, capsys):
        code = main([
            "run", "--devices", "2", "--apps", "NotAnApp",
            "-o", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "bad scenario" in capsys.readouterr().err

    def test_run_with_telemetry_writes_chrome_trace(self, tmp_path):
        out = tmp_path / "fleet"
        trace = tmp_path / "trace.json"
        code = main([
            "run", "--devices", "2", "--requests", "10",
            "--configs", "small-4PS", "-o", str(out),
            "--telemetry", str(trace),
        ])
        assert code == 0
        payload = json.loads(trace.read_text())
        assert any(event.get("name") == "fleet" for event in payload["traceEvents"])


class TestStats:
    def test_stats_renders_report(self, small_store, capsys):
        assert main(["stats", str(small_store), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "6 devices" in out
        assert "mean response (ms)" in out

    def test_stats_json_output(self, small_store, capsys):
        assert main(["stats", str(small_store), "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["devices"] == 6

    def test_stats_missing_store_fails(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope")]) == 1
        assert "no repro-fleet-store" in capsys.readouterr().err


class TestShowDevice:
    def test_shows_row(self, small_store, capsys):
        assert main(["show-device", str(small_store), "4"]) == 0
        out = capsys.readouterr().out
        assert "device 4" in out
        assert "stats_digest64" in out

    def test_resimulate_proves_parity(self, small_store, capsys):
        assert main(["show-device", str(small_store), "5", "--resimulate"]) == 0
        assert "re-simulation matches" in capsys.readouterr().out

    def test_out_of_range_index_fails(self, small_store, capsys):
        assert main(["show-device", str(small_store), "17"]) == 1
