"""Every registered metric, folded over any chunking, equals its scalar oracle.

The batch engine is the one-chunk fold, so the fold-vs-batch suites
(``test_registry_properties``, ``test_engine_parity``) compare the
streaming states with themselves.  This suite is the independent check:
hypothesis folds every registered metric over arbitrary chunkings --
empty chunks included, collapsed or deferred float sums -- of the
randomized edge-case traces of ``tests/analysis/test_vectorized_oracles``
and requires ``==`` (never approx) with the naive request loops of
``tests/analysis/oracles.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import all_metrics, metric_names
from repro.trace import Op

from ..analysis.oracles import (
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
from ..analysis.test_vectorized_oracles import CASES

#: The scalar oracle of each registered metric, by registry name.
ORACLES = {
    "size_stats": _reference_size_stats,
    "timing_stats": _reference_timing_stats,
    "spatial_locality": _reference_spatial_locality,
    "temporal_locality": _reference_temporal_locality,
    "localities": _reference_measure,
    "size_distribution": _reference_size_distribution,
    "response_distribution": _reference_response_distribution,
    "interarrival_distribution": _reference_interarrival_distribution,
    "throughput_by_size_read": lambda trace: _reference_trace_throughput_by_size(
        [trace], Op.READ
    ),
    "throughput_by_size_write": lambda trace: _reference_trace_throughput_by_size(
        [trace], Op.WRITE
    ),
}

#: Empty, one request, all reads, all writes, duplicate LBAs, and the
#: default mix with 70% of requests completed.
_EDGE_CASES = ("empty", "single-completed", "all-reads", "all-writes",
               "duplicate-lba", "mixed")
_TRACES = {case.id: case.values[0] for case in CASES if case.id in _EDGE_CASES}
_EXPECTED = {
    case: {name: oracle(trace) for name, oracle in ORACLES.items()}
    for case, trace in _TRACES.items()
}


def test_every_registered_metric_has_an_oracle():
    assert set(_TRACES) == set(_EDGE_CASES)
    assert sorted(ORACLES) == sorted(metric_names())


@given(case=st.sampled_from(_EDGE_CASES), collapse=st.booleans(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_fold_of_any_chunking_equals_the_oracle(case, collapse, data):
    trace = _TRACES[case]
    columns = trace.columns()
    # Cut points in [0, n], repeats allowed: empty chunks anywhere.
    cuts = data.draw(
        st.lists(st.integers(min_value=0, max_value=len(columns)), max_size=12).map(
            sorted
        ),
        label="cuts",
    )
    bounds = [0, *cuts, len(columns)]
    chunks = [columns.select(slice(a, b)) for a, b in zip(bounds, bounds[1:])]
    for metric in all_metrics():
        value = metric.fold(chunks, trace.name, collapse=collapse)
        assert value == _EXPECTED[case][metric.name], (case, metric.name)
