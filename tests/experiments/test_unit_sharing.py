"""Shard units shared across experiments run once per wave.

fig9's shard plan names fig8's worker, ``fig8.replay_app``, over the same
18 apps, so a run of both replays each (trace, scheme) pair once: serially
and in the pool, with the payload fanned out to both merges.
"""

from __future__ import annotations

import pytest

from repro.experiments import common, fig8, fig9, parallel
from repro.experiments.cache import ResultCache
from repro.experiments.runner import _jsonable
from repro.telemetry import Telemetry

N = 150
SEED = 1234
PAIR = ["fig8", "fig9"]
#: 18 traces x 3 schemes, each replayed on a brand-new device.
DISTINCT_REPLAYS = 54


@pytest.fixture
def devices_built(monkeypatch):
    """Count the devices the experiment replays construct."""
    built = []
    device_class = common.EmmcDevice

    def counting(*args, **kwargs):
        built.append(1)
        return device_class(*args, **kwargs)

    monkeypatch.setattr(common, "EmmcDevice", counting)
    return built


@pytest.fixture(scope="module")
def own_runs():
    """Each figure from its own module's ``run()``."""
    return {
        "fig8": fig8.run(seed=SEED, num_requests=N),
        "fig9": fig9.run(seed=SEED, num_requests=N),
    }


def _assert_matches_own_runs(summary, own_runs):
    for result in summary.results:
        reference = own_runs[result.experiment_id]
        assert _jsonable(result.data) == _jsonable(reference.data)
        assert result.render() == reference.render()


class TestSerial:
    def test_pair_replays_each_pair_once(self, devices_built, own_runs):
        summary = parallel.execute(ids=PAIR, seed=SEED, num_requests=N, jobs=1)
        assert len(devices_built) == DISTINCT_REPLAYS
        _assert_matches_own_runs(summary, own_runs)
        fig8_telemetry, fig9_telemetry = summary.telemetry
        assert (fig8_telemetry.shards, fig9_telemetry.shards) == (0, 0)
        assert (fig8_telemetry.shared_units, fig9_telemetry.shared_units) == (0, 18)
        assert fig9_telemetry.as_dict()["shared_units"] == 18
        # The replays are charged once, to fig8; fig9 pays only its merge.
        assert fig9_telemetry.compute_s < fig8_telemetry.compute_s / 10

    def test_fig9_alone_replays_each_pair_once(self, devices_built, own_runs):
        summary = parallel.execute(ids=["fig9"], seed=SEED, num_requests=N, jobs=1)
        assert len(devices_built) == DISTINCT_REPLAYS
        assert summary.telemetry[0].shared_units == 0
        _assert_matches_own_runs(summary, own_runs)


class TestPool:
    def test_pair_submits_one_task_per_unit(self, own_runs):
        sink = Telemetry()
        summary = parallel.execute(
            ids=PAIR, seed=SEED, num_requests=N, jobs=2, wall_sink=sink
        )
        shard_spans = [span for span in sink.spans if span[1] == "shard"]
        assert len(shard_spans) == 18
        # A shared task appears once, under its first consumer.
        assert all(span[0].startswith("fig8:") for span in shard_spans)
        assert [t.shards for t in summary.telemetry] == [18, 18]
        assert [t.shared_units for t in summary.telemetry] == [0, 18]
        _assert_matches_own_runs(summary, own_runs)


class TestCache:
    def test_warm_fig8_alone_still_computes_fig9(self, tmp_path, own_runs):
        parallel.execute(
            ids=["fig8"], seed=SEED, num_requests=N, cache=ResultCache(tmp_path)
        )
        warm = ResultCache(tmp_path)
        summary = parallel.execute(ids=PAIR, seed=SEED, num_requests=N, cache=warm)
        assert warm.stats.hit_ids == ["fig8"]
        assert warm.stats.miss_ids == ["fig9"]
        assert summary.telemetry[1].shared_units == 0
        _assert_matches_own_runs(summary, own_runs)
