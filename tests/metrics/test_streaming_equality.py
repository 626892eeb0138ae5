"""Streaming engine vs the whole-trace analysis functions, bit for bit.

``test_engine_parity`` compares each metric's fold with its own batch
kernel.  This suite pins the other side of the contract the ``stats``
command relies on: the chunked, mergeable pass over the summary metrics,
the localities and the Fig. 3 throughput curve produces *the same bits*
as the whole-trace convenience functions in :mod:`repro.analysis`
(``size_stats(trace)``, ``measure(trace)``, ...), for any chunk size
and any contiguous shard split.  Every assertion uses ``==`` on floats,
never ``pytest.approx``.
"""

import zlib

import numpy as np
import pytest

from repro.analysis import (
    interarrival_distribution,
    measure,
    response_distribution,
    size_distribution,
    size_stats,
    timing_stats,
    trace_throughput_by_size,
)
from repro.metrics import (
    LocalitiesState,
    MetricSetState,
    ThroughputBySizeState,
    chunked,
    fold_chunks,
    summary_metrics,
)
from repro.trace import Op, Trace
from repro.workloads import ALL_TRACES, generate_trace
from repro.workloads.collection import collect

#: Apps whose replayed (closed-loop) traces are checked end to end;
#: the rest are checked on their generated form, which exercises the
#: same code paths far faster.
REPLAYED_APPS = ("Email", "AngryBrid", "CameraVideo")


def _analysis_summary(trace):
    """The summary metrics' values from the whole-trace functions."""
    return {
        "size_stats": size_stats(trace),
        "timing_stats": timing_stats(trace),
        "size_distribution": size_distribution(trace),
        "response_distribution": response_distribution(trace),
        "interarrival_distribution": interarrival_distribution(trace),
    }


def _assert_matches_analysis(summary, trace):
    expected = _analysis_summary(trace)
    assert list(summary) == list(expected)
    for name, value in expected.items():
        assert summary[name] == value, name


def _fold(trace, chunk_rows, collapse):
    state = MetricSetState(summary_metrics(), collapse=collapse)
    for chunk in chunked(trace.columns(), chunk_rows):
        state.update(chunk)
    return state.finalize(trace.name)


class TestAllTraces:
    """Every one of the paper's 25 workloads, generated form."""

    @pytest.mark.parametrize("name", ALL_TRACES)
    def test_generated_trace_bits_match(self, name):
        trace = generate_trace(name, seed=7, num_requests=700)
        _assert_matches_analysis(_fold(trace, 137, collapse=True), trace)

    @pytest.mark.parametrize("name", REPLAYED_APPS)
    def test_replayed_trace_bits_match(self, name):
        trace = collect(name, seed=5, num_requests=200).trace
        _assert_matches_analysis(_fold(trace, 41, collapse=True), trace)
        _assert_matches_analysis(_fold(trace, 41, collapse=False), trace)


class TestChunkingInvariance:
    """The chunk size must never change a single output bit."""

    @pytest.mark.parametrize("name", ["Email", "Twitter"])
    @pytest.mark.parametrize("collapse", [False, True])
    def test_extreme_chunkings(self, name, collapse):
        trace = collect(name, seed=9, num_requests=150).trace
        n = len(trace)
        for rows in (1, 7, n - 1, n, 10 * n):
            _assert_matches_analysis(_fold(trace, rows, collapse), trace)

    def test_fold_chunks_over_summary_metrics(self):
        trace = collect("Email", seed=9, num_requests=150).trace
        summary = fold_chunks(
            summary_metrics(), chunked(trace.columns(), 13), trace.name
        )
        _assert_matches_analysis(summary, trace)


class TestShardMerge:
    """Random contiguous shard splits merge to the exact analysis bits."""

    @pytest.mark.parametrize("name", ["Email", "YouTube", "Installing"])
    def test_random_splits(self, name):
        trace = collect(name, seed=11, num_requests=180).trace
        columns = trace.columns()
        n = len(columns)
        # crc32, not hash(): the splits must not depend on PYTHONHASHSEED.
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(5):
            cuts = np.sort(rng.choice(np.arange(1, n), 3, replace=False))
            bounds = [0, *cuts.tolist(), n]
            shards = []
            for a, b in zip(bounds, bounds[1:]):
                shard = MetricSetState(summary_metrics())
                for chunk in chunked(columns.select(slice(a, b)), 29):
                    shard.update(chunk)
                shards.append(shard)
            # Left fold of the merge tree.
            left = shards[0]
            for shard in shards[1:]:
                left.merge(shard)
            _assert_matches_analysis(left.finalize(trace.name), trace)

    def test_collapsed_leftmost_shard_absorbs_deferred_rest(self):
        trace = collect("Email", seed=11, num_requests=160).trace
        columns = trace.columns()
        left = MetricSetState(summary_metrics(), collapse=True)
        for chunk in chunked(columns.select(slice(0, 60)), 17):
            left.update(chunk)
        right = MetricSetState(summary_metrics())
        for chunk in chunked(columns.select(slice(60, len(columns))), 23):
            right.update(chunk)
        left.merge(right)
        _assert_matches_analysis(left.finalize(trace.name), trace)


class TestEmptyTrace:
    def test_empty_stream_equals_batch_on_empty_trace(self):
        trace = Trace("empty", [])
        summary = MetricSetState(summary_metrics()).finalize("empty")
        _assert_matches_analysis(summary, trace)

    def test_empty_chunks_are_no_ops(self):
        trace = collect("Email", seed=3, num_requests=100).trace
        columns = trace.columns()
        state = MetricSetState(summary_metrics())
        state.update(columns.select(slice(0, 0)))
        for chunk in chunked(columns, 31):
            state.update(chunk)
            state.update(columns.select(slice(0, 0)))
        _assert_matches_analysis(state.finalize(trace.name), trace)


class TestLocalities:
    @pytest.mark.parametrize("name", ALL_TRACES[::4])
    def test_matches_measure(self, name):
        trace = generate_trace(name, seed=13, num_requests=500)
        state = LocalitiesState()
        for chunk in chunked(trace.columns(), 61):
            state.update(chunk)
        assert state.finalize() == measure(trace)

    def test_shard_merge_matches_measure(self):
        trace = generate_trace("Email", seed=13, num_requests=400)
        columns = trace.columns()
        shards = []
        for a, b in ((0, 5), (5, 123), (123, 400)):
            shard = LocalitiesState()
            for chunk in chunked(columns.select(slice(a, b)), 19):
                shard.update(chunk)
            shards.append(shard)
        left = shards[0]
        for shard in shards[1:]:
            left.merge(shard)
        assert left.finalize() == measure(trace)


class TestThroughput:
    @pytest.mark.parametrize("op", [Op.READ, Op.WRITE])
    def test_matches_batch_kernel(self, op):
        traces = [collect(n, seed=17, num_requests=150).trace for n in REPLAYED_APPS]
        expected = trace_throughput_by_size(traces, op)
        state = ThroughputBySizeState(op, collapse=True)
        for trace in traces:
            for chunk in chunked(trace.columns(), 37):
                state.update(chunk)
        assert state.finalize() == expected

    def test_shard_merge(self):
        traces = [collect(n, seed=17, num_requests=150).trace for n in REPLAYED_APPS]
        expected = trace_throughput_by_size(traces, Op.READ)
        shards = []
        for trace in traces:
            shard = ThroughputBySizeState(Op.READ)
            for chunk in chunked(trace.columns(), 53):
                shard.update(chunk)
            shards.append(shard)
        left = shards[0]
        for shard in shards[1:]:
            left.merge(shard)
        assert left.finalize() == expected
