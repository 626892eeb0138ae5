"""Columnar analysis kernels vs their scalar reference oracles.

The PR that introduced :mod:`repro.trace.columns` promises the analysis
layer at least a 3x speedup over the original request-loop kernels on
analysis-heavy workloads.  This benchmark times the full kernel battery
both ways on one large replayed-style trace -- charging the columnar side
the full ``from_requests`` build cost -- asserts the results are
*identical* (the bit-identity contract), and asserts the speedup floor.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.correlation import size_response_correlation
from repro.analysis.distributions import (
    interarrival_distribution,
    response_distribution,
    size_distribution,
)
from repro.analysis.percentiles import response_percentiles_ms
from repro.analysis.size_stats import size_stats
from repro.analysis.timing_stats import timing_stats
from repro.trace import Op, Request, SECTOR, Trace

from conftest import run_once
from tests.analysis.oracles import (
    _reference_interarrival_distribution,
    _reference_response_distribution,
    _reference_response_percentiles_ms,
    _reference_size_distribution,
    _reference_size_response_correlation,
    _reference_size_stats,
    _reference_timing_stats,
)

#: Large enough that both sides are dominated by per-request work, small
#: enough for CI (~100k requests, about half a full experiment run's total).
_REQUESTS = 100_000

#: The promised floor; in practice the battery lands far above it.
_MIN_SPEEDUP = 3.0


def _big_replayed_trace(count: int = _REQUESTS) -> Trace:
    """A deterministic replayed-style trace with realistic field spreads."""
    rng = np.random.default_rng(20150614)
    arrivals = np.cumsum(rng.exponential(4000.0, count))
    pages = rng.integers(1, 65, count)
    lbas = rng.integers(0, 1 << 18, count) * SECTOR
    is_write = rng.random(count) < 0.7
    waits = rng.exponential(120.0, count)
    services = 800.0 + rng.exponential(1500.0, count)
    requests = [
        Request(
            arrival_us=float(arrivals[i]),
            lba=int(lbas[i]),
            size=int(pages[i]) * SECTOR,
            op=Op.WRITE if is_write[i] else Op.READ,
            service_start_us=float(arrivals[i] + waits[i]),
            finish_us=float(arrivals[i] + waits[i] + services[i]),
        )
        for i in range(count)
    ]
    return Trace(name="bench-analysis", requests=requests)


def _columnar_battery(trace: Trace):
    return (
        size_stats(trace),
        timing_stats(trace),
        size_distribution(trace),
        response_distribution(trace),
        interarrival_distribution(trace),
        response_percentiles_ms(trace),
        size_response_correlation(trace),
    )


def _scalar_battery(trace: Trace):
    return (
        _reference_size_stats(trace),
        _reference_timing_stats(trace),
        _reference_size_distribution(trace),
        _reference_response_distribution(trace),
        _reference_interarrival_distribution(trace),
        _reference_response_percentiles_ms(trace),
        _reference_size_response_correlation(trace),
    )


def test_columnar_battery_speedup_over_scalar(benchmark):
    trace = _big_replayed_trace()

    def measure():
        # Charge the columnar side the full struct-of-arrays build.
        start = time.perf_counter()
        columnar = _columnar_battery(Trace(trace.name, trace.requests))
        columnar_s = time.perf_counter() - start
        start = time.perf_counter()
        scalar = _scalar_battery(trace)
        scalar_s = time.perf_counter() - start
        return columnar, scalar, columnar_s, scalar_s

    columnar, scalar, columnar_s, scalar_s = run_once(benchmark, measure)
    assert columnar == scalar  # bit-identical, not merely close
    speedup = scalar_s / columnar_s
    print(
        f"\ncolumnar {columnar_s * 1000:.1f} ms vs scalar {scalar_s * 1000:.1f} ms "
        f"({speedup:.1f}x) on {len(trace)} requests"
    )
    assert speedup >= _MIN_SPEEDUP
