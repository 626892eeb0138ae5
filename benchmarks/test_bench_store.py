"""Binary store + streaming stats vs the CSV write/read/batch pipeline.

The trace store promises that persisting a trace and computing its
full summary is at least 3x faster through ``repro.store`` +
``repro.metrics`` (binary columnar chunks, one memmap-backed pass)
than through the CSV round trip (vectorized ``dumps``/``loads``) plus
the in-memory batch kernels.  Both sides produce the complete Table
III/IV + Figs. 4-6 statistic bundle; the results must be *identical*
(the bit-identity contract), and the speedup floor is asserted.
"""

from __future__ import annotations

import time

from repro.analysis import (
    interarrival_distribution,
    response_distribution,
    size_distribution,
    size_stats,
    timing_stats,
)
from repro.metrics import fold_chunks, summary_metrics
from repro.store import open_store, pack
from repro.trace import dumps, loads
from repro.workloads import generate_trace

from conftest import BENCH_SEED, run_once

#: Requests in the benchmark trace -- large enough that per-row costs
#: dominate, small enough for CI (a ~6 MiB store).
_REQUESTS = 150_000

#: The promised floor; in practice the store path lands far above it.
_MIN_SPEEDUP = 3.0


def _csv_pipeline(trace, path):
    """Persist to CSV, read it back, run the batch statistic battery."""
    path.write_text(dumps(trace), newline="")
    restored = loads(path.read_text())
    return (
        size_stats(restored),
        timing_stats(restored),
        size_distribution(restored),
        response_distribution(restored),
        interarrival_distribution(restored),
    )


def _store_pipeline(trace, path):
    """Pack to a chunked store, summarize it in one streaming pass."""
    pack(trace, path)
    store = open_store(path)
    summary = fold_chunks(summary_metrics(), store.iter_chunks(), store.name)
    return (
        summary["size_stats"],
        summary["timing_stats"],
        summary["size_distribution"],
        summary["response_distribution"],
        summary["interarrival_distribution"],
    )


def test_store_pipeline_speedup_over_csv(benchmark, tmp_path):
    trace = generate_trace("Email", seed=BENCH_SEED, num_requests=_REQUESTS)
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
        f"\nstore {store_s * 1000:.1f} ms vs csv {csv_s * 1000:.1f} ms "
        f"({speedup:.1f}x) on {len(trace)} requests"
    )
    assert speedup >= _MIN_SPEEDUP
