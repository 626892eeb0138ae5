"""The unified metric layer holds both inherited performance floors.

The metric-kernel refactor rerouted the analysis adapters, the streaming
summaries and the experiment shard workers through one registry of
:class:`~repro.metrics.base.Metric` definitions.  Two earlier PRs
promised floors that must survive the indirection:

* the columnar-kernels PR: the vectorized batch battery is >=3x the
  scalar request-loop oracles (now kept in ``tests/analysis/oracles.py``);
* the trace-store PR: persisting + summarizing through the binary store
  and the out-of-core engine is >=3x the CSV round trip + batch kernels.

Both benchmarks run the registry paths -- ``batch_values`` over
``all_metrics()`` and ``fold_chunks`` over ``summary_metrics()`` -- so a
slow registry dispatch or a pessimized adapter shows up here, and both
assert bit-identity before timing is even considered.
"""

from __future__ import annotations

import time

from repro.metrics import all_metrics, batch_values, fold_chunks, summary_metrics
from repro.store import open_store, pack
from repro.trace import Op, TraceColumns, dumps, loads
from repro.workloads import generate_trace

from conftest import BENCH_SEED, run_once
from test_bench_analysis import _big_replayed_trace
from tests.analysis.oracles import (
    _reference_interarrival_distribution,
    _reference_measure,
    _reference_response_distribution,
    _reference_size_distribution,
    _reference_size_stats,
    _reference_spatial_locality,
    _reference_temporal_locality,
    _reference_timing_stats,
    _reference_trace_throughput_by_size,
)

#: The inherited floors; in practice both land far above.
_MIN_SPEEDUP = 3.0

#: Requests in the store-path benchmark trace (matches the store bench).
_STORE_REQUESTS = 150_000


def _oracle_battery(trace):
    """Every registered metric's value, via the scalar request loops."""
    return {
        "size_stats": _reference_size_stats(trace),
        "timing_stats": _reference_timing_stats(trace),
        "spatial_locality": _reference_spatial_locality(trace),
        "temporal_locality": _reference_temporal_locality(trace),
        "localities": _reference_measure(trace),
        "size_distribution": _reference_size_distribution(trace),
        "response_distribution": _reference_response_distribution(trace),
        "interarrival_distribution": _reference_interarrival_distribution(trace),
        "throughput_by_size_read": _reference_trace_throughput_by_size(
            [trace], Op.READ
        ),
        "throughput_by_size_write": _reference_trace_throughput_by_size(
            [trace], Op.WRITE
        ),
    }


def test_registry_batch_battery_speedup_over_oracles(benchmark):
    trace = _big_replayed_trace()
    metrics = all_metrics()

    def measure():
        # Charge the registry side the full struct-of-arrays build.
        start = time.perf_counter()
        columns = TraceColumns.from_requests(trace.requests)
        registry = batch_values(metrics, columns, trace.name)
        registry_s = time.perf_counter() - start
        start = time.perf_counter()
        oracle = _oracle_battery(trace)
        oracle_s = time.perf_counter() - start
        return registry, oracle, registry_s, oracle_s

    registry, oracle, registry_s, oracle_s = run_once(benchmark, measure)
    assert set(registry) == set(oracle)
    for name in oracle:
        assert registry[name] == oracle[name], name  # bit-identical
    speedup = oracle_s / registry_s
    print(
        f"\nregistry {registry_s * 1000:.1f} ms vs oracles {oracle_s * 1000:.1f} ms "
        f"({speedup:.1f}x) on {len(trace)} requests"
    )
    assert speedup >= _MIN_SPEEDUP


def _csv_pipeline(trace, path):
    """Persist to CSV, read it back, run the registry batch battery."""
    path.write_text(dumps(trace), newline="")
    restored = loads(path.read_text())
    return batch_values(summary_metrics(), restored.columns(), restored.name)


def _store_pipeline(trace, path):
    """Pack to a chunked store, fold the registry's out-of-core engine."""
    pack(trace, path)
    store = open_store(path)
    return fold_chunks(
        summary_metrics(), store.iter_chunks(), store.name, collapse=True
    )


def test_registry_fold_store_speedup_over_csv(benchmark, tmp_path):
    trace = generate_trace("Email", seed=BENCH_SEED, num_requests=_STORE_REQUESTS)
    trace.columns()  # both sides start from a materialized columnar view

    def measure():
        start = time.perf_counter()
        via_csv = _csv_pipeline(trace, tmp_path / "trace.csv")
        csv_s = time.perf_counter() - start
        start = time.perf_counter()
        via_store = _store_pipeline(trace, tmp_path / "trace.store")
        store_s = time.perf_counter() - start
        return via_csv, via_store, csv_s, store_s

    via_csv, via_store, csv_s, store_s = run_once(benchmark, measure)
    assert via_store == via_csv  # bit-identical, not merely close
    speedup = csv_s / store_s
    print(
        f"\nstore+fold {store_s * 1000:.1f} ms vs csv+batch {csv_s * 1000:.1f} ms "
        f"({speedup:.1f}x) on {len(trace)} requests"
    )
    assert speedup >= _MIN_SPEEDUP
