"""Property-based hardening of the streaming-vs-analysis bit-identity contract.

``test_streaming_equality`` checks hand-picked chunkings and shard
splits of the summary metrics against the whole-trace functions in
:mod:`repro.analysis`; here hypothesis draws *arbitrary* ones.  The
invariants under test (all with ``==`` on floats, never approx):

* any partition of the stream into chunks folds to the exact bits;
* any contiguous shard split merges to the exact bits;
* merge is associative: a pairwise merge tree over the shards produces
  the same bits as the sequential left fold.

``test_registry_properties`` states the same properties for every
registered metric against its own batch kernel.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    interarrival_distribution,
    response_distribution,
    size_distribution,
    size_stats,
    timing_stats,
)
from repro.metrics import MetricSetState, summary_metrics
from repro.workloads.collection import collect

#: One completed (replayed) trace shared by every example: collection is
#: the expensive part, and the properties quantify over chunkings/splits
#: of the stream, not over workloads (test_streaming_equality covers all
#: 25 of those).
_TRACE = collect("Email", seed=5, num_requests=150).trace
_COLUMNS = _TRACE.columns()
_N = len(_COLUMNS)
_METRICS = tuple(summary_metrics())
_EXPECTED = {
    "size_stats": size_stats(_TRACE),
    "timing_stats": timing_stats(_TRACE),
    "size_distribution": size_distribution(_TRACE),
    "response_distribution": response_distribution(_TRACE),
    "interarrival_distribution": interarrival_distribution(_TRACE),
}


def _assert_analysis_bits(summary) -> None:
    assert list(summary) == list(_EXPECTED)
    for name, value in _EXPECTED.items():
        assert summary[name] == value, name


#: Interior cut points 0 < c < N, drawn without replacement; together
#: with the {0, N} endpoints they define an arbitrary contiguous
#: partition of the stream.
cuts_strategy = st.lists(
    st.integers(min_value=1, max_value=_N - 1),
    unique=True,
    min_size=0,
    max_size=12,
).map(sorted)


def _bounds(cuts):
    return [0, *cuts, _N]


@given(cuts=cuts_strategy)
@settings(max_examples=40, deadline=None)
def test_any_chunking_matches_batch_bits(cuts):
    """Folding the stream in arbitrary-size chunks is chunking-invariant."""
    state = MetricSetState(_METRICS, collapse=True)
    bounds = _bounds(cuts)
    for a, b in zip(bounds, bounds[1:]):
        state.update(_COLUMNS.select(slice(a, b)))
    _assert_analysis_bits(state.finalize(_TRACE.name))


def _shards(cuts):
    shards = []
    bounds = _bounds(cuts)
    for a, b in zip(bounds, bounds[1:]):
        shard = MetricSetState(_METRICS)
        shard.update(_COLUMNS.select(slice(a, b)))
        shards.append(shard)
    return shards


@given(cuts=cuts_strategy)
@settings(max_examples=40, deadline=None)
def test_any_shard_split_merges_to_batch_bits(cuts):
    """Summarizing shards independently and merging loses nothing."""
    shards = _shards(cuts)
    merged = shards[0]
    for shard in shards[1:]:
        merged.merge(shard)
    _assert_analysis_bits(merged.finalize(_TRACE.name))


@given(cuts=cuts_strategy)
@settings(max_examples=25, deadline=None)
def test_merge_tree_order_invariance(cuts):
    """A pairwise merge tree equals the sequential left fold, bit for bit.

    This is what licenses parallel shard-and-merge reduction: workers may
    combine adjacent partial summaries in any tree shape, as long as
    stream order is respected.
    """
    shards = _shards(cuts)

    sequential = copy.deepcopy(shards[0])
    for shard in shards[1:]:
        sequential.merge(copy.deepcopy(shard))

    level = shards
    while len(level) > 1:
        merged_level = []
        for index in range(0, len(level) - 1, 2):
            level[index].merge(level[index + 1])
            merged_level.append(level[index])
        if len(level) % 2:
            merged_level.append(level[-1])
        level = merged_level
    tree = level[0]

    a = sequential.finalize(_TRACE.name)
    b = tree.finalize(_TRACE.name)
    assert a == b
    _assert_analysis_bits(b)


@given(
    cuts=cuts_strategy,
    chunk_rows=st.integers(min_value=1, max_value=2 * _N),
)
@settings(max_examples=25, deadline=None)
def test_shards_internally_rechunked(cuts, chunk_rows):
    """Chunking *within* each shard composes with merging across shards."""
    bounds = _bounds(cuts)
    merged = None
    for a, b in zip(bounds, bounds[1:]):
        shard = MetricSetState(_METRICS)
        position = a
        while position < b:
            take = min(chunk_rows, b - position)
            shard.update(_COLUMNS.select(slice(position, position + take)))
            position += take
        if merged is None:
            merged = shard
        else:
            merged.merge(shard)
    _assert_analysis_bits(merged.finalize(_TRACE.name))

