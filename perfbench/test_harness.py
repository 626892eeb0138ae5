"""Tests of the benchmark harness itself, on shrunk workloads.

Run from the repository root (about half a minute)::

    PYTHONPATH=src python -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Shrunk stand-ins for the three workloads.  Together they reach every
#: boundary: ``table4`` collects closed-loop, ``implications`` runs
#: foreground GC, ``fig8``/``fig9`` take the fast path, the five studies
#: call ``generate_trace`` through their own bindings, and 40 fleet
#: devices make two shards whose metric states merge.
SHRUNK = {
    "sweep": workloads.ExperimentSweep(
        ids=("fig8", "table4", "implications", "ftl_study", "lifetime", "power_study",
             "sdcard_study", "sensitivity"),
        num_requests=200,
    ),
    "battery": workloads.ExperimentSweep(ids=("fig8", "fig9"), num_requests=200),
    "fleet": workloads.FleetRun(devices=40, requests_per_device=100, jobs=1),
}
SEED = 7


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """A traced, then an untraced, sample of each shrunk workload."""
    from repro.experiments.common import clear_experiment_caches

    scratch = tmp_path_factory.mktemp("scratch")
    out = {}
    for name, workload in SHRUNK.items():
        # In-process samples share memos; clearing them makes the traced
        # sample pay for trace synthesis and collection as a cold one does.
        clear_experiment_caches()
        traced = workloads.run_sample(workload, SEED, "traced", 0, scratch)
        untraced = workloads.run_sample(workload, SEED, "measure", 0, scratch)
        out[name] = (traced, untraced)
    return out


def test_every_boundary_binding_is_hit(samples):
    hits = {target: 0 for target in samples["sweep"][0]["hits"]}
    for traced, _ in samples.values():
        for target, count in traced["hits"].items():
            hits[target] += count
    assert hits and not [target for target, count in hits.items() if count == 0]


def test_self_times_fit_inside_the_traced_wall(samples):
    for traced, _ in samples.values():
        self_s = sum(v for k, v in traced["layers"].items() if k.endswith(".self_s"))
        assert 0 < self_s <= traced["wall_s"]
        assert traced["layers"]["trace.coverage_pct"] <= 100.0


def test_traced_outputs_equal_untraced_outputs(samples):
    for traced, untraced in samples.values():
        assert traced["digests"] == untraced["digests"]
        assert all(traced["checks"].values()) and all(untraced["checks"].values())


def test_layer_names_match_the_benchmark_spec(samples):
    spec = json.loads(run.SPEC_FILE.read_text())
    declared = [metric["name"] for metric in spec["per_layer"]]
    traced, untraced = samples["fleet"]
    reported = list(traced["layers"]) + list(untraced["extras"]) + ["trace.overhead_pct"]
    assert sorted(declared) == sorted(reported)
    assert set(layers.metric_names()) <= set(declared)


def test_child_environment_is_pinned(tmp_path, monkeypatch):
    switches = ("REPRO_REPLAY_FASTPATH", "REPRO_FAULT_PROFILE", "REPRO_TELEMETRY",
                "REPRO_TRACE_STORE")
    for name in switches:
        monkeypatch.setenv(name, "1")
    monkeypatch.setenv("PYTHONHASHSEED", "123")
    env = run.child_env({"PATH": "/bin", **{name: "1" for name in switches}})
    assert env["PYTHONHASHSEED"] == "0" and not any(n.startswith("REPRO_") for n in env)
    # ...and a real child sees exactly that.
    record = run.spawn("fleet_mixed", SEED, "setup", 0, tmp_path)
    assert record["env"] == {"PYTHONHASHSEED": "0", "repro": []}
    assert record["setup_s"] > 0


def test_units_fail_on_mismatch_and_on_a_dead_child():
    good = {"index": 0, "seed": 1, "digests": {"a": "1", "b": "2"}, "checks": {"kernel": True}}
    bad = {"index": 1, "seed": 1, "digests": {"a": "1", "b": "3"}, "checks": {"kernel": False}}
    setup = {"index": 0, "seed": 1}
    # The first sample of an unpinned input has only its spot checks, and
    # a set-up child that ran checks nothing.
    assert run.check_units([("setup", setup)], [("measure", good)], {}) == (1, 0, [])
    attempted, failed, _ = run.check_units(
        [("setup", None), ("setup", setup)],
        [("measure", good), ("traced", bad), ("measure", None)], {},
    )
    assert (attempted, failed) == (1 + 1 + 3 + 3, 1 + 0 + 2 + 3)
    # Pinned digests are the reference when the input seed has them.
    assert run.check_units([], [("measure", good)], {"1": {"a": "1", "b": "9"}})[1] == 1


def _saved_run(tmp_path, name, wall, failed=0, seed=1, digests=None):
    metrics = {m: {"value": 1.0, "unit": "s"} for m in ("cpu_ref_s", "setup_s", "peak_rss_mib")}
    metrics["wall_ref_s"] = {"value": wall, "unit": "s"}
    samples = [
        {"mode": "setup", "seed": seed},
        {"mode": "measure", "seed": seed, "digests": digests or {"devices": "d", "rollup": "r"}},
    ]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"workload": "fleet_mixed", "trace": 0, "samples": samples,
                                "result": {"correct": not failed, "attempted": 10,
                                           "failed": failed, "metrics": metrics}}))
    return str(path)


def test_compare_flags_regressions_only(tmp_path, capsys):
    spec = json.loads(run.SPEC_FILE.read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_ref_s")
    parent = [_saved_run(tmp_path, f"a{i}", 10.0 + 0.01 * i) for i in range(5)]
    same = [_saved_run(tmp_path, f"b{i}", 10.0 + 0.01 * i) for i in range(5)]
    slower = [_saved_run(tmp_path, f"c{i}", 10.0 * (1 + 2 * bound) + 0.01 * i)
              for i in range(5)]
    faster = [_saved_run(tmp_path, f"d{i}", 10.0 * (1 - bound) + 0.01 * i) for i in range(5)]
    failing = [_saved_run(tmp_path, f"e{i}", 10.0, failed=1) for i in range(5)]
    assert run.compare(parent, same, spec) == 0
    assert run.compare(parent, faster, spec) == 0
    assert "gain" in capsys.readouterr().out
    assert run.compare(parent, slower, spec) == 1
    assert run.compare(parent, failing, spec) == 1
    # A parent noisier than the bound leaves a change unresolved, unless
    # every change run is worse than every parent run.
    noisy = [_saved_run(tmp_path, f"n{i}", 10.0 * (1 + bound * (i - 2))) for i in range(5)]
    capsys.readouterr()
    assert run.compare(noisy, same, spec) == 0
    assert "unresolved" in capsys.readouterr().out
    far = [_saved_run(tmp_path, f"f{i}", 10.0 * (1 + 3 * bound) + i) for i in range(5)]
    assert run.compare(noisy, far, spec) == 1


def test_compare_fails_outputs_that_differ_from_the_parent_at_the_same_seed(tmp_path, capsys):
    spec = json.loads(run.SPEC_FILE.read_text())
    parent = [_saved_run(tmp_path, f"a{i}", 10.0, seed=i) for i in range(3)]
    drifted = {"devices": "d", "rollup": "other"}
    # Equal times, but seed 1's rollup changed: one failed unit.
    change = [_saved_run(tmp_path, f"b{i}", 10.0, seed=i, digests=drifted if i == 1 else None)
              for i in range(3)]
    assert run.compare(parent, change, spec) == 1
    assert "seed 1: rollup" in capsys.readouterr().out
    # Other digests at seeds the parent never ran have nothing to differ from.
    unseen = [_saved_run(tmp_path, f"c{i}", 10.0, seed=10 + i, digests=drifted)
              for i in range(3)]
    assert run.compare(parent, unseen, spec) == 0


def test_bare_benchmark_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.SPEC_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "fleet_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
