"""Dispatcher fallback matrix: which replays the fast path refuses.

Every configuration the two-pass engine does not model must (a) be
flagged ineligible by :func:`repro.replay.preconditions.decide` with a
reason naming the behaviour, (b) silently run on the event kernel in
``auto`` mode, and (c) raise :class:`FastPathUnavailable` under
``REPRO_REPLAY_FASTPATH=require`` -- through both ``Host`` entries, the
open-loop ``replay`` and ``replay_closed_loop``.
"""

import pytest

from repro.emmc import EmmcDevice, small_four_ps
from repro.faults import FaultPlan
from repro.replay import FastPathUnavailable, decide, fallback_reasons
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


def _closed_loop(host, num=40):
    """Serve ``_trace()``'s stream closed-loop, every other request synchronous."""
    requests = list(_trace(num))
    return host.replay_closed_loop(
        [request.lba for request in requests],
        [request.size for request in requests],
        [request.op for request in requests],
        [120.0] * (num - 1),
        [index % 2 == 0 for index in range(num - 1)],
    )


def _faulted_device():
    return EmmcDevice(
        small_four_ps(), faults=FaultPlan(seed=1, program_error_rate=0.01)
    )


def _read_faulted_device():
    return EmmcDevice(
        small_four_ps(), faults=FaultPlan(seed=1, read_error_rate=0.3)
    )


def _recording_device():
    return EmmcDevice(small_four_ps(), kernel=EventLoop(telemetry=Telemetry()))


#: (label, device factory, substring the reason must contain).
MATRIX = [
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
        reasons = decide(device, _trace())
        # One cause, one reason (a device's sink is its kernel's sink).
        assert len(reasons) == 1, reasons
        assert reason_part in reasons[0], reasons

    def test_auto_mode_falls_back_to_the_kernel(
        self, label, factory, reason_part, monkeypatch
    ):
        monkeypatch.delenv("REPRO_REPLAY_FASTPATH", raising=False)
        device = factory()
        reasons = fallback_reasons(device, _trace())
        assert len(reasons) == 1 and reason_part in reasons[0], reasons
        result = Host(device).replay(_trace())
        # The replay really ran, and it ran on the event kernel.
        assert len(result.trace) == 40
        assert device.kernel.processed > 0
        assert result.engine == "kernel"
        assert len(result.fallback_reasons) == 1, result.fallback_reasons
        assert reason_part in result.fallback_reasons[0]

    def test_require_mode_raises(self, label, factory, reason_part, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_FASTPATH", "require")
        device = factory()
        with pytest.raises(FastPathUnavailable, match=reason_part.replace("(", "\\(")):
            Host(device).replay(_trace())

    def test_closed_loop_auto_mode_falls_back_to_the_kernel(
        self, label, factory, reason_part, monkeypatch
    ):
        monkeypatch.delenv("REPRO_REPLAY_FASTPATH", raising=False)
        device = factory()
        result = _closed_loop(Host(device))
        assert len(result.trace) == 40
        assert device.kernel.processed > 0
        assert result.engine == "kernel"
        assert len(result.fallback_reasons) == 1, result.fallback_reasons
        assert reason_part in result.fallback_reasons[0]

    def test_closed_loop_require_mode_raises(
        self, label, factory, reason_part, monkeypatch
    ):
        monkeypatch.setenv("REPRO_REPLAY_FASTPATH", "require")
        device = factory()
        with pytest.raises(FastPathUnavailable, match=reason_part.replace("(", "\\(")):
            _closed_loop(Host(device))
        # The fallback decision comes before any request is served.
        assert device.stats.requests == 0


#: Configurations the fast path serves beyond the base one:
#: (label, device factory).
ELIGIBLE = [
    # The shared reservation routine draws the read faults.
    ("read_faults", _read_faulted_device),
    # Program/erase failures fire inside Ftl.write, which every write of
    # such a device runs through the device's own write step.
    ("faults_armed", _faulted_device),
    # Plan rows carry the GC flag copy-back needs.
    (
        "gc_copyback",
        lambda: EmmcDevice(small_four_ps(gc_copyback=True, gc_threshold_blocks=6)),
    ),
]
ELIGIBLE_IDS = [label for label, _ in ELIGIBLE]


class TestEligible:
    def test_base_config_takes_the_fast_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY_FASTPATH", raising=False)
        device = EmmcDevice(small_four_ps())
        assert decide(device, _trace()) == ()
        result = Host(device).replay(_trace())
        assert len(result.trace) == 40
        # The fast path fires no events: kernel telemetry stays at zero.
        assert device.kernel.processed == 0
        assert result.engine == "fast" and result.fallback_reasons == ()

    @pytest.mark.parametrize("label,factory", ELIGIBLE, ids=ELIGIBLE_IDS)
    def test_config_takes_the_fast_path(self, label, factory, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_FASTPATH", "require")
        device = factory()
        assert decide(device, _trace()) == ()
        result = Host(device).replay(_trace())
        assert len(result.trace) == 40
        assert device.kernel.processed == 0
        assert result.engine == "fast" and result.fallback_reasons == ()

    @pytest.mark.parametrize("label,factory", ELIGIBLE, ids=ELIGIBLE_IDS)
    def test_closed_loop_config_takes_the_fast_path(self, label, factory, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_FASTPATH", "require")
        device = factory()
        result = _closed_loop(Host(device))
        assert len(result.trace) == 40
        assert device.kernel.processed == 0
        assert result.engine == "fast" and result.fallback_reasons == ()

    def test_read_faults_fire_on_the_fast_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY_FASTPATH", raising=False)
        device = _read_faulted_device()
        result = Host(device).replay(_trace())
        assert result.engine == "fast" and result.fallback_reasons == ()
        assert device.stats.read_retries > 0

    def test_program_faults_fire_on_the_fast_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY_FASTPATH", raising=False)
        device = EmmcDevice(
            small_four_ps(), faults=FaultPlan(seed=1, program_error_rate=0.1)
        )
        result = Host(device).replay(_trace())
        assert result.engine == "fast" and result.fallback_reasons == ()
        assert device.stats.program_failures > 0
        assert device.stats.bad_blocks_retired == device.stats.program_failures

    def test_armed_power_timer_from_a_prior_replay_stays_eligible(self):
        # The device's own speculative POWER_DOWN timer is modeled in
        # closed form, so a second replay is still fast-path material.
        device = EmmcDevice(small_four_ps())
        Host(device).replay(_trace())
        follow_up = _trace(offset_us=device.kernel.now_us + 1e6)
        assert decide(device, follow_up) == ()

    def test_closed_loop_base_config_takes_the_fast_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY_FASTPATH", raising=False)
        device = EmmcDevice(small_four_ps())
        result = _closed_loop(Host(device))
        assert len(result.trace) == 40
        assert device.kernel.processed == 0

    def test_observer_pins_the_event_kernel(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY_FASTPATH", raising=False)
        device = EmmcDevice(small_four_ps())
        result = Host(device).replay(_trace(), on_complete=lambda request: None)
        assert device.kernel.processed > 0
        assert result.engine == "kernel"
        assert len(result.fallback_reasons) == 1
        assert "on_complete observer" in result.fallback_reasons[0]


class TestStructuralFallbacks:
    def test_foreign_pending_event_falls_back(self):
        device = EmmcDevice(small_four_ps())
        device.kernel.schedule(10.0, lambda event: None, label="foreign")
        reasons = decide(device, _trace())
        assert any("pending material" in reason for reason in reasons)

    def test_arrival_before_the_clock_falls_back(self):
        device = EmmcDevice(small_four_ps())
        Host(device).replay(_trace())
        assert device.kernel.now_us > 0.0
        stale = _trace()  # arrivals restart at 0, behind the clock
        reasons = decide(device, stale)
        assert any("precedes the kernel clock" in r for r in reasons)


    def test_closed_loop_behind_the_clock_falls_back(self, monkeypatch):
        # A closed loop starts at 0.0, so a device whose clock has moved
        # on is ineligible and the kernel raises as it always has.
        monkeypatch.setenv("REPRO_REPLAY_FASTPATH", "require")
        device = EmmcDevice(small_four_ps())
        Host(device).replay(_trace())
        with pytest.raises(FastPathUnavailable, match="precedes the kernel clock"):
            _closed_loop(Host(device))


class TestClosedLoopInput:
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"gaps_us": [120.0] * 5}, "one entry per request after the first"),
            ({"synchronous": [True] * 40}, "one entry per request after the first"),
            ({"size": [SECTOR] * 39}, "one entry per request"),
            ({"gaps_us": [-1.0] + [120.0] * 38}, "non-negative"),
            ({"lba": [100] * 40}, "multiple of 4096"),
            ({"size": [0] * 40}, "positive multiple"),
        ],
    )
    def test_malformed_stream_is_rejected(self, change, message):
        stream = {
            "lba": [SECTOR * i for i in range(40)],
            "size": [SECTOR] * 40,
            "op": [Op.WRITE] * 40,
            "gaps_us": [120.0] * 39,
            "synchronous": [True] * 39,
        }
        stream.update(change)
        device = EmmcDevice(small_four_ps())
        with pytest.raises(ValueError, match=message):
            Host(device).replay_closed_loop(**stream)
        assert device.stats.requests == 0

    def test_empty_stream(self):
        device = EmmcDevice(small_four_ps())
        result = Host(device).replay_closed_loop([], [], [], [], [])
        assert len(result.trace) == 0 and device.stats.requests == 0


class TestEnvSwitch:
    def test_off_mode_pins_the_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_FASTPATH", "off")
        device = EmmcDevice(small_four_ps())
        result = Host(device).replay(_trace())
        assert device.kernel.processed > 0
        assert result.fallback_reasons == ("REPRO_REPLAY_FASTPATH=off",)
        closed = _closed_loop(Host(EmmcDevice(small_four_ps())))
        assert closed.fallback_reasons == ("REPRO_REPLAY_FASTPATH=off",)

    def test_unknown_mode_is_an_error(self, monkeypatch):
        # "force" was an alias of require; only auto, off and require remain.
        for mode in ("sometimes", "force"):
            monkeypatch.setenv("REPRO_REPLAY_FASTPATH", mode)
            device = EmmcDevice(small_four_ps())
            with pytest.raises(ValueError, match=mode):
                Host(device).replay(_trace())
