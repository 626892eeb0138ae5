"""Engine parity across every workload: streaming == batch, bit for bit.

``test_registry_properties`` quantifies over arbitrary chunkings of one
trace; this suite quantifies over the *workloads*: every registered
metric, on all 25 paper traces, folded at the adversarial chunk sizes
(1 row, a small prime, one-short-of-everything, everything, and one
chunk larger than the stream) must finalize to the exact batch bits.
Replayed traces additionally exercise the completed-timestamp fields
(service/response sums, the no-wait ratio), and pooled together they
exercise the one multi-stream kernel, the Fig. 3 throughput curve.
"""

import pytest

from repro.metrics import (
    THROUGHPUT_BY_SIZE_READ,
    THROUGHPUT_BY_SIZE_WRITE,
    all_metrics,
    batch_values,
    chunked,
    fold_chunks,
)
from repro.workloads import ALL_TRACES, generate_trace
from repro.workloads.collection import collect

#: Per-trace request budget: large enough that every bucket and both ops
#: appear, small enough that 25 traces x 5 chunkings stay fast.
_NUM_REQUESTS = 400

#: Replayed (closed-loop collected) apps: the completed-field coverage.
_REPLAYED = ("Email", "AngryBrid", "CameraVideo")


def _chunk_sizes(n):
    return sorted({1, 7, max(1, n - 1), n, 10 * n})


def _assert_engine_parity(trace):
    columns = trace.columns()
    metrics = all_metrics()
    batch = batch_values(metrics, columns, trace.name)
    for chunk_rows in _chunk_sizes(len(columns)):
        folded = fold_chunks(
            metrics, chunked(columns, chunk_rows), trace.name, collapse=True
        )
        for metric in metrics:
            assert folded[metric.name] == batch[metric.name], (
                f"{metric.name} diverges at chunk_rows={chunk_rows}"
            )


@pytest.mark.parametrize("app", ALL_TRACES)
def test_all_metrics_all_traces(app):
    """Every registered metric, every paper workload, adversarial chunks."""
    _assert_engine_parity(generate_trace(app, seed=7, num_requests=_NUM_REQUESTS))


def _assert_pooled_parity(traces):
    """Fig. 3 pools several traces: ``batch_traces`` over all of them
    equals one fold across every trace's chunks in order, and equals one
    deferred shard per trace merged left to right."""
    columns_list = [trace.columns() for trace in traces]
    for metric in (THROUGHPUT_BY_SIZE_READ, THROUGHPUT_BY_SIZE_WRITE):
        expected = metric.batch_traces(columns_list)
        folded = metric.fold(
            (chunk for columns in columns_list for chunk in chunked(columns, 37)),
            collapse=True,
        )
        assert folded == expected, metric.name
        shards = []
        for columns in columns_list:
            shard = metric.init()
            for chunk in chunked(columns, 53):
                metric.update(shard, chunk)
            shards.append(shard)
        for shard in shards[1:]:
            metric.merge(shards[0], shard)
        assert metric.finalize(shards[0]) == expected, metric.name


@pytest.mark.parametrize(
    "apps", [(app,) for app in _REPLAYED] + [_REPLAYED], ids=[*_REPLAYED, "pooled"]
)
def test_all_metrics_replayed_traces(apps):
    """Same contract with completed timestamps (service/response/no-wait);
    the pooled input checks the multi-stream throughput kernel."""
    traces = [collect(app, seed=11, num_requests=200).trace for app in apps]
    if len(traces) == 1:
        _assert_engine_parity(traces[0])
    else:
        _assert_pooled_parity(traces)


def test_empty_and_single_row_streams():
    """Degenerate streams: no chunks at all, and exactly one row."""
    trace = generate_trace("Email", seed=3, num_requests=1)
    _assert_engine_parity(trace)
    metrics = all_metrics()
    empty = trace.columns().select(slice(0, 0))
    batch = batch_values(metrics, empty, "empty")
    folded = fold_chunks(metrics, [], "empty", collapse=True)
    for metric in metrics:
        assert folded[metric.name] == batch[metric.name], metric.name
