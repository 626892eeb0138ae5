"""Serial vs parallel experiment-engine scaling on the heavy replays.

Records the wall time of the sharded engine at 1 and 2 workers over the
replay-bound experiments (fig8 + fig9: 18 per-trace replay tasks, each
shared by both figures' merges) and checks the engine's contracts:
identical output at every worker count, and telemetry that accounts for
the compute honestly.  The
absolute speedup is hardware-dependent (CI containers may pin a single
core), so the assertion is on correctness and accounting, while the
printed numbers document the scaling on the machine at hand.
"""

from __future__ import annotations

from repro.experiments import parallel
from repro.experiments.runner import _jsonable

from conftest import BENCH_SEED, QUICK_REQUESTS, run_once

IDS = ["fig8", "fig9"]


def _run(jobs: int) -> parallel.RunSummary:
    return parallel.execute(
        ids=IDS, seed=BENCH_SEED, num_requests=QUICK_REQUESTS, jobs=jobs
    )


def test_engine_serial(benchmark):
    summary = run_once(benchmark, lambda: _run(1))
    assert [r.experiment_id for r in summary.results] == IDS
    assert all(t.shards == 0 for t in summary.telemetry)  # in-process
    print(
        f"\nserial: wall {summary.wall_s:.2f}s, "
        f"compute {summary.compute_s:.2f}s"
    )


def test_engine_two_workers(benchmark):
    serial = _run(1)
    summary = run_once(benchmark, lambda: _run(2))
    assert all(t.shards == 18 for t in summary.telemetry)
    # The parallel contract: bit-identical output at any worker count.
    assert [_jsonable(r.data) for r in summary.results] == [
        _jsonable(r.data) for r in serial.results
    ]
    assert [r.render() for r in summary.results] == [
        r.render() for r in serial.results
    ]
    print(
        f"\n2 workers: wall {summary.wall_s:.2f}s, "
        f"compute {summary.compute_s:.2f}s, speedup {summary.speedup:.2f}x "
        f"(serial wall {serial.wall_s:.2f}s, "
        f"wall-vs-wall {serial.wall_s / summary.wall_s:.2f}x)"
    )


def test_warm_cache_replay(benchmark, tmp_path):
    from repro.experiments.cache import ResultCache

    cold = ResultCache(cache_dir=tmp_path)
    parallel.execute(
        ids=IDS, seed=BENCH_SEED, num_requests=QUICK_REQUESTS, jobs=1, cache=cold
    )
    warm = ResultCache(cache_dir=tmp_path)
    summary = run_once(
        benchmark,
        lambda: parallel.execute(
            ids=IDS, seed=BENCH_SEED, num_requests=QUICK_REQUESTS, jobs=1, cache=warm
        ),
    )
    assert warm.stats.hits == len(IDS)
    assert summary.compute_s == 0.0  # nothing recomputed
    print(f"\nwarm cache: wall {summary.wall_s * 1000:.1f}ms for {len(IDS)} results")
