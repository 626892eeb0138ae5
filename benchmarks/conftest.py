"""Shared settings for the benchmark harness.

Each benchmark regenerates one of the paper's tables/figures on shortened
traces (the full-size run is ``repro-experiments``), times it with
pytest-benchmark, and asserts the headline *shape* the paper reports.
"""

from __future__ import annotations

import time

import pytest

#: Requests per trace in benchmark mode (full traces: Table III counts).
QUICK_REQUESTS = 1200
#: Seed distinct from the default release seed, exercising robustness.
BENCH_SEED = 2015


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer and return it."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def interleaved_best(first, second, rounds):
    """Best wall seconds of two callables over ``rounds`` interleaved runs.

    Machine noise on shared runners is large relative to the numbers
    under test, so the two sides run alternately (first, second, first,
    second, ...) and the best of ``rounds`` repetitions per side is
    compared -- interleaved minima are stable where back-to-back means
    are not.  Returns ``(first_result, second_result, first_s,
    second_s)``, the results of each side's last run.
    """
    first_s = second_s = float("inf")
    first_result = second_result = None
    for _ in range(rounds):
        started = time.perf_counter()
        first_result = first()
        first_s = min(first_s, time.perf_counter() - started)
        started = time.perf_counter()
        second_result = second()
        second_s = min(second_s, time.perf_counter() - started)
    return first_result, second_result, first_s, second_s


@pytest.fixture
def quick():
    return {"seed": BENCH_SEED, "num_requests": QUICK_REQUESTS}
