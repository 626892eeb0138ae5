"""Observer plumbing and fast-path interaction.

Pinned regressions:

* exactly one ``on_complete`` dispatch per request, with or without a
  telemetry sink attached (the COMPLETE event carries its observer on
  the payload; telemetry watches the same event through the kernel's
  recording hook, never through a second callback);
* an attached sink is a fast-path *fallback* precondition -- the
  vectorized path computes identical timings but records no spans, so
  ``auto`` falls back to the kernel and ``require`` raises instead of
  silently losing the span stream.
"""

import pytest

from repro.emmc import EmmcDevice, small_four_ps
from repro.replay import FastPathUnavailable, decide, fallback_reasons
from repro.sim import Host
from repro.telemetry import Telemetry
from repro.trace import Op, Request, SECTOR, Trace


def _trace(num=40):
    return Trace(
        "observer",
        [
            Request(
                arrival_us=i * 120.0,
                lba=(i % 24) * SECTOR,
                size=2 * SECTOR,
                op=Op.WRITE if i % 2 else Op.READ,
            )
            for i in range(num)
        ],
    )


class TestSingleDispatch:
    def test_observer_fires_once_per_request(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY_FASTPATH", raising=False)
        seen = []
        device = EmmcDevice(small_four_ps())
        result = Host(device).replay(_trace(), on_complete=seen.append)
        assert len(seen) == len(result.trace) == 40

    def test_observer_and_telemetry_coexist(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY_FASTPATH", raising=False)
        seen = []
        sink = Telemetry()
        device = EmmcDevice(small_four_ps(), telemetry=sink)
        result = Host(device).replay(_trace(), on_complete=seen.append)
        # One dispatch per request -- not one per (observer, sink) pair.
        assert len(seen) == 40
        assert len(sink.decompositions) == 40
        # The observer saw the same timed requests the result holds.
        assert [r.finish_us for r in seen] == sorted(
            r.finish_us for r in result.trace
        )
        # The sink's kernel trace saw every COMPLETE fire exactly once.
        completes = [e for e in sink.kernel_events if e[3] == "COMPLETE"]
        assert len(completes) == 40

    def test_results_identical_with_and_without_observer(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_FASTPATH", "off")
        plain = Host(EmmcDevice(small_four_ps())).replay(_trace())
        sink = Telemetry()
        observed = Host(
            EmmcDevice(small_four_ps(), telemetry=sink)
        ).replay(_trace(), on_complete=lambda request: None)
        assert plain.stats.response_us == observed.stats.response_us
        assert plain.stats.wait_us == observed.stats.wait_us


class TestFastPathPrecondition:
    def test_decide_flags_an_attached_sink(self):
        device = EmmcDevice(small_four_ps(), telemetry=Telemetry())
        reasons = decide(device, _trace())
        assert any("telemetry" in reason for reason in reasons)

    def test_auto_falls_back_and_records_spans(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY_FASTPATH", raising=False)
        sink = Telemetry()
        device = EmmcDevice(small_four_ps(), telemetry=sink)
        reasons = fallback_reasons(device, _trace())
        assert len(reasons) == 1 and "telemetry" in reasons[0], reasons
        result = Host(device).replay(_trace())
        assert len(result.trace) == 40
        assert device.kernel.processed > 0
        assert len(sink.decompositions) == 40

    def test_require_raises_rather_than_losing_spans(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_FASTPATH", "require")
        device = EmmcDevice(small_four_ps(), telemetry=Telemetry())
        with pytest.raises(FastPathUnavailable, match="telemetry"):
            Host(device).replay(_trace())

    def test_no_sink_still_takes_the_fast_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY_FASTPATH", raising=False)
        device = EmmcDevice(small_four_ps())
        assert decide(device, _trace()) == ()
        Host(device).replay(_trace())
        assert device.kernel.processed == 0

    def test_fast_and_kernel_paths_agree_on_results(self, monkeypatch):
        # The sink only forces the engine choice; the numbers match.
        monkeypatch.delenv("REPRO_REPLAY_FASTPATH", raising=False)
        fast = Host(EmmcDevice(small_four_ps())).replay(_trace())
        slow = Host(
            EmmcDevice(small_four_ps(), telemetry=Telemetry())
        ).replay(_trace())
        assert fast.stats.response_us == slow.stats.response_us


class TestExperimentsEnvHook:
    def test_replay_on_honors_the_env(self, monkeypatch):
        from repro.emmc import four_ps
        from repro.experiments.common import replay_on
        from repro.workloads import generate_trace

        trace = generate_trace("Twitter", seed=1, num_requests=60)
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        off = replay_on(four_ps(), trace)
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        on = replay_on(four_ps(), trace)
        assert off.stats.response_us == on.stats.response_us
        for disabled in ("0", "off", "none", "false", ""):
            monkeypatch.setenv("REPRO_TELEMETRY", disabled)
            from repro.experiments.common import _telemetry_from_env

            assert _telemetry_from_env() is None


class TestRunnerWallSink:
    def test_execute_emits_wall_spans_and_cache_events(self, tmp_path):
        from repro.experiments import parallel
        from repro.experiments.cache import ResultCache

        sink = Telemetry()
        cache = ResultCache(cache_dir=tmp_path / "cache")
        summary = parallel.execute(
            ids=["fig4"], num_requests=60, cache=cache, wall_sink=sink
        )
        assert len(summary.results) == 1
        names = [span[0] for span in sink.spans]
        assert "fig4" in names
        assert any(name.startswith("fig4:") for name in names)
        misses = [e for e in sink.events if e[1] == "cache-miss"]
        assert len(misses) == 1
        # Warm rerun: a hit event, no new experiment span.
        hit_sink = Telemetry()
        parallel.execute(
            ids=["fig4"], num_requests=60, cache=cache, wall_sink=hit_sink
        )
        hits = [e for e in hit_sink.events if e[1] == "cache-hit"]
        assert len(hits) == 1
        assert not hit_sink.spans

    def test_wall_sink_never_changes_results(self, monkeypatch):
        from repro.experiments import parallel

        plain = parallel.execute(ids=["fig4"], num_requests=60)
        with_sink = parallel.execute(
            ids=["fig4"], num_requests=60, wall_sink=Telemetry()
        )
        assert plain.results[0].data == with_sink.results[0].data
