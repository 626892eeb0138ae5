"""Property-based invariants of closed-loop collection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import stats_digest
from repro.workloads import collect
from repro.workloads import collection, generator

APPS = ["Email", "Twitter", "Movie", "CallIn"]


@given(
    app=st.sampled_from(APPS),
    count=st.integers(min_value=1, max_value=120),
    seed=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=12, deadline=None)
def test_collection_invariants(app, count, seed):
    """Collected traces are completed, ordered, and causally consistent."""
    result = collect(app, seed=seed, num_requests=count)
    trace = result.trace
    assert len(trace) == count
    previous_finish = 0.0
    previous_arrival = 0.0
    for request in trace:
        assert request.completed
        # Arrival order is preserved by construction.
        assert request.arrival_us >= previous_arrival
        # FIFO device: service starts no earlier than the previous finish
        # would allow, and timestamps are internally ordered.
        assert request.service_start_us >= previous_finish - 1e-6
        assert request.finish_us > request.service_start_us
        previous_finish = request.finish_us
        previous_arrival = request.arrival_us


def _collect_on(mode, app, seed, count):
    """Collect with ``REPRO_REPLAY_FASTPATH=mode``, calibration pilots included."""
    # Empty the calibration memos first, so the sync pilot runs on this
    # mode's engine too instead of reusing the other mode's answer.
    collection._sync_cache.clear()
    generator._temporal_cache.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_REPLAY_FASTPATH", mode)
        return collect(app, seed=seed, num_requests=count)


@given(
    app=st.sampled_from(APPS),
    count=st.integers(min_value=1, max_value=120),
    seed=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=10, deadline=None)
def test_kernel_and_fast_path_collect_identically(app, count, seed):
    """The event kernel and the fast path give the same collection."""
    kernel = _collect_on("off", app, seed, count)
    fast = _collect_on("require", app, seed, count)
    assert list(fast.trace) == list(kernel.trace)
    assert fast.trace.metadata == kernel.trace.metadata
    assert stats_digest(fast.device_stats) == stats_digest(kernel.device_stats)
