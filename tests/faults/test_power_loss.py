"""Power loss at *every* event index of a replay, plus the device
``recover()`` contract."""

import pytest

from repro.emmc import EmmcDevice, small_four_ps
from repro.faults import FaultPlan, replay_with_faults, stats_digest
from repro.sim import Host
from repro.trace import Op, Request, SECTOR, Trace


def _trace(num=12):
    return Trace(
        "cut",
        [
            Request(
                arrival_us=i * 100.0,
                lba=(i % 32) * SECTOR,
                size=2 * SECTOR,
                op=Op.WRITE if i % 2 else Op.READ,
            )
            for i in range(num)
        ],
    )


def _check_invariants_on_recover(monkeypatch):
    """Make every ``EmmcDevice.recover`` check the FTL's invariants after."""
    recover = EmmcDevice.recover

    def checked(self, *args, **kwargs):
        report = recover(self, *args, **kwargs)
        self.ftl.check_invariants()
        return report

    monkeypatch.setattr(EmmcDevice, "recover", checked)


def _baseline_event_count(config, trace):
    # Counts kernel events, so the replay must run on the event kernel;
    # an on_complete observer pins it there (the fast path has no events).
    device = EmmcDevice(config)
    Host(device).replay(trace.without_timing(), on_complete=lambda _: None)
    return device.kernel.processed


class TestExhaustiveSweep:
    """Cut before event k, for every k the fault-free replay fires."""

    def test_every_cut_point_recovers_and_serves_everything(self, monkeypatch):
        _check_invariants_on_recover(monkeypatch)
        trace = _trace()
        config = small_four_ps()
        total_events = _baseline_event_count(config, trace)
        assert total_events > len(trace)  # arrivals + completions + timers

        baseline = replay_with_faults(config, trace, FaultPlan.none())
        for cut_at in range(total_events):
            plan = FaultPlan(seed=1, power_loss_at_event=cut_at)
            result = replay_with_faults(config, trace, plan)
            assert result.interrupted, f"cut at {cut_at} never triggered"
            assert result.stats.recoveries == 1
            assert result.recovery is not None
            assert result.recovery.resumed_us >= result.recovery.cut_us
            # Every request is eventually served, exactly once.
            assert len(result.trace) == len(trace)
            arrivals = [r.arrival_us for r in result.trace]
            assert arrivals == sorted(arrivals)
            # Requests served before the cut kept their fault-free timing.
            served_before = len(trace) - result.resubmitted
            for original, replayed in list(zip(baseline.trace, result.trace))[
                :served_before
            ]:
                assert replayed == original
            # Resubmitted requests never start before the device is back.
            for replayed in list(result.trace)[served_before:]:
                assert replayed.arrival_us >= result.recovery.resumed_us

    def test_cut_beyond_last_event_is_a_clean_run(self):
        trace = _trace()
        config = small_four_ps()
        total_events = _baseline_event_count(config, trace)
        plan = FaultPlan(seed=1, power_loss_at_event=total_events + 10)
        result = replay_with_faults(config, trace, plan)
        assert not result.interrupted
        assert result.recovery is None
        assert result.stats.recoveries == 0
        baseline = replay_with_faults(config, trace, FaultPlan.none())
        assert stats_digest(result.stats) == stats_digest(baseline.stats)


class TestRecoverContract:
    def test_recover_before_cut_time_rejected(self):
        device = EmmcDevice(small_four_ps())
        Host(device).replay(_trace().without_timing())
        with pytest.raises(ValueError):
            device.recover(at_us=device.kernel.now_us - 1.0)

    def test_recover_rebuilds_mapping_from_flash(self):
        device = EmmcDevice(small_four_ps())
        Host(device).replay(_trace(num=20).without_timing())
        written_before = {
            lpn
            for lpn in device.ftl.mapping.mapped_lpns()
            if not device.ftl.mapping.lookup(lpn).preloaded
        }
        assert written_before  # the trace wrote something
        report = device.recover()
        device.ftl.check_invariants()
        # Preloaded locations are dropped (re-derived on demand); every
        # flash-written LPN is rediscovered by the scan.
        assert report.remapped_entries == len(written_before)
        assert set(device.ftl.mapping.mapped_lpns()) == written_before

    def test_recover_clears_the_volatile_timing_state(self):
        device = EmmcDevice(small_four_ps())
        threshold = device.latency.power_threshold_us
        Host(device).replay(Trace("wake", [
            Request(arrival_us=0.0, lba=0, size=SECTOR, op=Op.WRITE),
            Request(arrival_us=3 * threshold, lba=SECTOR, size=SECTOR, op=Op.WRITE),
        ]))
        timing = device.timing
        device.kernel.run_until(timing.power_down_us + 1.0)  # the timer fires
        assert (timing.low_power, timing.low_power_entries) == (True, 2)
        report = device.recover(at_us=device.kernel.now_us + 10.0)
        # Queue, counts, flag and frontiers go; the entry count and the
        # stats' wake-ups stay; the idle clock restarts at the resume.
        assert timing.host() == {
            "queue": (0.0, 0, 0, 0),
            "power": (report.resumed_us, False, 2),
        }
        resources = timing.resources()
        assert resources["controller"] == (0.0, 0.0, 0)
        assert set(resources["channels"] + resources["units"]) == {(0.0, 0.0, 0)}
        assert device.stats.wakeups == 1

    def test_recovered_device_still_serves(self):
        device = EmmcDevice(small_four_ps())
        Host(device).replay(_trace().without_timing())
        report = device.recover(at_us=device.kernel.now_us + 100.0)
        box = []
        device.arrive(
            Request(
                arrival_us=report.resumed_us + 10.0,
                lba=0,
                size=SECTOR,
                op=Op.READ,
            ),
            record_to=box,
        )
        device.kernel.drain()
        assert len(box) == 1 and box[0].completed

    def test_recovery_charges_downtime(self):
        trace = _trace()
        config = small_four_ps()
        plan = FaultPlan(seed=1, power_loss_at_event=15, power_loss_recovery_us=50000.0)
        result = replay_with_faults(config, trace, plan)
        assert result.recovery.resumed_us == pytest.approx(
            result.recovery.cut_us + 50000.0
        )

    def test_power_loss_replay_deterministic(self):
        trace = _trace()
        config = small_four_ps()
        plan = FaultPlan(seed=1, power_loss_at_event=20)
        a = replay_with_faults(config, trace, plan)
        b = replay_with_faults(config, trace, plan)
        assert stats_digest(a.stats) == stats_digest(b.stats)
        assert list(a.trace) == list(b.trace)
