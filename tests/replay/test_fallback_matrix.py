"""Dispatcher fallback matrix: which replays the fast path refuses.

Every configuration the two-pass engine does not model must (a) be
flagged ineligible by :func:`repro.replay.preconditions.decide` with a
reason naming the behaviour, (b) silently run on the event kernel in
``auto`` mode, and (c) raise :class:`FastPathUnavailable` under
``REPRO_REPLAY_FASTPATH=require``.
"""

import pytest

from repro.emmc import EmmcDevice, small_four_ps
from repro.faults import FaultPlan
from repro.replay import FastPathUnavailable, decide, maybe_fast_replay
from repro.sim import EventLoop, Host
from repro.telemetry import Telemetry
from repro.trace import Op, Request, SECTOR, Trace


def _trace(num=40, offset_us=0.0):
    return Trace(
        "matrix",
        [
            Request(
                arrival_us=offset_us + i * 120.0,
                lba=(i % 24) * SECTOR,
                size=2 * SECTOR,
                op=Op.WRITE if i % 2 else Op.READ,
            )
            for i in range(num)
        ],
    )


def _faulted_device():
    return EmmcDevice(
        small_four_ps(), faults=FaultPlan(seed=1, read_error_rate=0.01)
    )


def _recording_device():
    return EmmcDevice(small_four_ps(), kernel=EventLoop(telemetry=Telemetry()))


#: (label, device factory, substring the reason must contain).
MATRIX = [
    ("faults_armed", _faulted_device, "fault injection"),
    (
        "queue_depth_2",
        lambda: EmmcDevice(small_four_ps(queue_depth=2)),
        "queue_depth=2",
    ),
    (
        "ram_buffer_on",
        lambda: EmmcDevice(small_four_ps(ram_buffer_bytes=64 * 1024)),
        "RAM buffer",
    ),
    (
        "idle_gc_timers",
        lambda: EmmcDevice(small_four_ps(idle_gc=True)),
        "idle-time GC",
    ),
    (
        "gc_copyback",
        lambda: EmmcDevice(small_four_ps(gc_copyback=True)),
        "copy-back",
    ),
    (
        "hybrid_log_mapping",
        lambda: EmmcDevice(small_four_ps(mapping_scheme="hybrid-log")),
        "mapping scheme",
    ),
    ("recording_kernel", _recording_device, "telemetry"),
    (
        "telemetry_sink",
        lambda: EmmcDevice(small_four_ps(), telemetry=Telemetry()),
        "telemetry",
    ),
]

IDS = [label for label, _, _ in MATRIX]


@pytest.mark.parametrize("label,factory,reason_part", MATRIX, ids=IDS)
class TestIneligible:
    def test_decide_flags_it(self, label, factory, reason_part):
        device = factory()
        decision = decide(device, _trace())
        assert not decision.eligible
        # One cause, one reason (a device's sink is its kernel's sink).
        assert len(decision.reasons) == 1, decision.reasons
        assert reason_part in decision.reasons[0], decision.reasons

    def test_auto_mode_falls_back_to_the_kernel(
        self, label, factory, reason_part, monkeypatch
    ):
        monkeypatch.delenv("REPRO_REPLAY_FASTPATH", raising=False)
        device = factory()
        assert maybe_fast_replay(device, _trace()) is None
        result = Host(device).replay(_trace())
        # The replay really ran, and it ran on the event kernel.
        assert len(result.trace) == 40
        assert device.kernel.processed > 0

    def test_require_mode_raises(self, label, factory, reason_part, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_FASTPATH", "require")
        device = factory()
        with pytest.raises(FastPathUnavailable, match=reason_part.replace("(", "\\(")):
            Host(device).replay(_trace())


class TestEligible:
    def test_base_config_takes_the_fast_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY_FASTPATH", raising=False)
        device = EmmcDevice(small_four_ps())
        assert decide(device, _trace()).eligible
        result = Host(device).replay(_trace())
        assert len(result.trace) == 40
        # The fast path fires no events: kernel telemetry stays at zero.
        assert device.kernel.processed == 0

    def test_armed_power_timer_from_a_prior_replay_stays_eligible(self):
        # The device's own speculative POWER_DOWN timer is modeled in
        # closed form, so a second replay is still fast-path material.
        device = EmmcDevice(small_four_ps())
        Host(device).replay(_trace())
        follow_up = _trace(offset_us=device.kernel.now_us + 1e6)
        assert decide(device, follow_up).eligible

    def test_observer_pins_the_event_kernel(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY_FASTPATH", raising=False)
        device = EmmcDevice(small_four_ps())
        Host(device).replay(_trace(), on_complete=lambda request: None)
        assert device.kernel.processed > 0


class TestStructuralFallbacks:
    def test_foreign_pending_event_falls_back(self):
        device = EmmcDevice(small_four_ps())
        device.kernel.schedule(10.0, lambda event: None, label="foreign")
        decision = decide(device, _trace())
        assert not decision.eligible
        assert any("pending material" in reason for reason in decision.reasons)

    def test_arrival_before_the_clock_falls_back(self):
        device = EmmcDevice(small_four_ps())
        Host(device).replay(_trace())
        assert device.kernel.now_us > 0.0
        stale = _trace()  # arrivals restart at 0, behind the clock
        decision = decide(device, stale)
        assert not decision.eligible
        assert any("precedes the kernel clock" in r for r in decision.reasons)


class TestEnvSwitch:
    def test_off_mode_pins_the_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_FASTPATH", "off")
        device = EmmcDevice(small_four_ps())
        Host(device).replay(_trace())
        assert device.kernel.processed > 0

    def test_unknown_mode_is_an_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_FASTPATH", "sometimes")
        device = EmmcDevice(small_four_ps())
        with pytest.raises(ValueError, match="sometimes"):
            Host(device).replay(_trace())
