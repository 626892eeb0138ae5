"""Property-based enforcement of the registry's exactness contract.

For **every** registered metric (the suite quantifies over the registry,
so a newly added metric is covered the moment it registers), hypothesis
draws arbitrary contiguous partitions of one replayed trace's stream and
requires -- with ``==`` on floats, never approx:

* out-of-core: ``finalize(fold(chunks)) == batch(whole stream)`` for any
  chunking, with or without empty chunks interleaved;
* sharded: any contiguous shard split, merged left to right, reproduces
  the batch bits -- also when the leftmost shard is a collapsed
  (out-of-core) state absorbing deferred ones;
* merge associativity: a pairwise merge tree over the shards equals the
  sequential left fold, bit for bit -- which is what licenses the
  parallel experiment runner's arbitrary merge order.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import MetricSetState, all_metrics, batch_values, get_metric
from repro.workloads.collection import collect

#: One completed (replayed) trace shared by every example: collection is
#: the expensive part, and the properties quantify over chunkings and
#: splits of the stream, not over workloads (tests/metrics/
#: test_engine_parity.py covers all 25 of those).
_TRACE = collect("Email", seed=5, num_requests=150).trace
_COLUMNS = _TRACE.columns()
_N = len(_COLUMNS)
_METRICS = tuple(all_metrics())
_BATCH = batch_values(_METRICS, _COLUMNS, _TRACE.name)


#: Interior cut points 0 < c < N, drawn without replacement; with the
#: {0, N} endpoints they define an arbitrary contiguous partition.
cuts_strategy = st.lists(
    st.integers(min_value=1, max_value=_N - 1),
    unique=True,
    min_size=0,
    max_size=12,
).map(sorted)


def _segments(cuts):
    bounds = [0, *cuts, _N]
    return [_COLUMNS.select(slice(a, b)) for a, b in zip(bounds, bounds[1:])]


def _assert_batch_bits(values) -> None:
    for metric in _METRICS:
        assert values[metric.name] == _BATCH[metric.name], metric.name


@given(cuts=cuts_strategy, interleave_empty=st.booleans())
@settings(max_examples=40, deadline=None)
def test_fold_of_any_chunking_equals_batch(cuts, interleave_empty):
    """Out-of-core engine: finalize(fold(chunks)) == batch(whole trace)."""
    chunks = _segments(cuts)
    if interleave_empty:
        empty = _COLUMNS.select(slice(0, 0))
        chunks = [empty] + [part for chunk in chunks for part in (chunk, empty)]
    values = {
        metric.name: metric.fold(chunks, _TRACE.name, collapse=True)
        for metric in _METRICS
    }
    _assert_batch_bits(values)


@given(cuts=cuts_strategy, collapse_left=st.booleans())
@settings(max_examples=40, deadline=None)
def test_any_shard_split_merges_to_batch_bits(cuts, collapse_left):
    """Sharded engine: independent shard states merge to the batch bits."""
    shards = []
    for segment in _segments(cuts):
        shard = MetricSetState(_METRICS, collapse=collapse_left and not shards)
        shard.update(segment)
        shards.append(shard)
    merged = shards[0]
    for shard in shards[1:]:
        merged.merge(shard)
    _assert_batch_bits(merged.finalize(_TRACE.name))


@given(cuts=cuts_strategy)
@settings(max_examples=25, deadline=None)
def test_merge_tree_order_invariance(cuts):
    """A pairwise merge tree equals the sequential left fold, bit for bit."""
    shards = []
    for segment in _segments(cuts):
        shard = MetricSetState(_METRICS)
        shard.update(segment)
        shards.append(shard)

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
    for metric in _METRICS:
        assert a[metric.name] == b[metric.name], metric.name
    _assert_batch_bits(b)


@given(
    cuts=cuts_strategy,
    chunk_rows=st.integers(min_value=1, max_value=2 * _N),
)
@settings(max_examples=25, deadline=None)
def test_rechunked_shards_compose(cuts, chunk_rows):
    """Chunking *within* each shard composes with merging across shards."""
    merged = None
    for segment in _segments(cuts):
        shard = MetricSetState(_METRICS)
        position = 0
        while position < len(segment):
            take = min(chunk_rows, len(segment) - position)
            shard.update(segment.select(slice(position, position + take)))
            position += take
        if merged is None:
            merged = shard
        else:
            merged.merge(shard)
    _assert_batch_bits(merged.finalize(_TRACE.name))


def test_registry_lookup_and_order():
    names = [metric.name for metric in _METRICS]
    assert names == sorted(set(names), key=names.index)  # unique, ordered
    assert "size_stats" in names and "timing_stats" in names
    for name in names:
        assert get_metric(name).name == name


def test_unknown_metric_raises_with_listing():
    try:
        get_metric("no_such_metric")
    except KeyError as error:
        assert "size_stats" in str(error)
    else:  # pragma: no cover
        raise AssertionError("expected KeyError")


def test_register_rejects_duplicates_and_unnamed():
    import pytest

    from repro.metrics.base import Metric
    from repro.metrics.registry import register

    class Fake(Metric):
        name = "size_stats"  # collides

        def batch(self, columns, name=""):  # pragma: no cover
            return None

        def init(self, collapse=False):  # pragma: no cover
            return None

        def finalize(self, state, name=""):  # pragma: no cover
            return None

    with pytest.raises(ValueError, match="already registered"):
        register(Fake())
    Fake.name = ""
    with pytest.raises(ValueError, match="no name"):
        register(Fake())
    # Re-registering the same object is idempotent.
    existing = get_metric("timing_stats")
    assert register(existing) is existing
