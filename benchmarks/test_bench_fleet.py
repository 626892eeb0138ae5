"""Fleet executor throughput and scaling.

Times a small fleet through :func:`repro.fleet.run_fleet`, asserts a
devices-per-second floor for the serial path, and — when the machine
actually has the cores for it — checks that two workers beat one by a
sane margin.  The byte-identity of the parallel output is pinned by
``tests/fleet/test_executor.py``; here the parallel run is only held to
producing the same manifest digest while the printed numbers document
the scaling on the machine at hand.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.fleet import FleetScenario, run_fleet
from repro.store import manifest_path

from conftest import BENCH_SEED, run_once

#: Serial floor (devices/second).  The 160-device battery simulates
#: ~32k requests through the full stack; even modest hardware clears
#: 40 dev/s with the replay fast path, so 15 leaves generous headroom
#: for shared CI runners.
MIN_DEVICES_PER_S = 15.0

DEVICES = 160
REQUESTS = 200


def _scenario() -> FleetScenario:
    return FleetScenario(
        devices=DEVICES,
        name="bench",
        seed=BENCH_SEED,
        requests_per_device=REQUESTS,
        apps={"Twitter": 2.0, "Music": 1.0, "Messaging": 1.0},
        configs={"small-4PS": 1.0, "small-HPS": 1.0},
        rate_factor_range=(0.5, 2.0),
    )


def _manifest_digest(path) -> str:
    payload = manifest_path(path).read_bytes()
    return hashlib.sha256(payload).hexdigest()


def test_fleet_serial_floor(benchmark, tmp_path):
    scenario = _scenario()
    result = run_once(
        benchmark,
        lambda: run_fleet(scenario, tmp_path / "serial", jobs=1, overwrite=True),
    )
    rate = result.devices / result.wall_s
    print(
        f"\nserial: {result.devices} devices in {result.wall_s:.2f}s "
        f"({rate:.1f} dev/s)"
    )
    assert result.devices == DEVICES
    assert rate >= MIN_DEVICES_PER_S, (
        f"serial fleet throughput {rate:.1f} dev/s below the "
        f"{MIN_DEVICES_PER_S} floor"
    )


def test_fleet_two_worker_scaling(benchmark, tmp_path):
    scenario = _scenario()
    serial = run_fleet(scenario, tmp_path / "serial", jobs=1)
    parallel = run_once(
        benchmark,
        lambda: run_fleet(scenario, tmp_path / "parallel", jobs=2),
    )
    # Same bytes regardless of worker count (the full sweep lives in
    # tests/fleet/test_executor.py).
    assert _manifest_digest(tmp_path / "serial") == _manifest_digest(
        tmp_path / "parallel"
    )
    wall_ratio = serial.wall_s / parallel.wall_s
    print(
        f"\n2 workers: wall {parallel.wall_s:.2f}s vs serial "
        f"{serial.wall_s:.2f}s ({wall_ratio:.2f}x), "
        f"compute/wall {parallel.speedup:.2f}x"
    )
    cores = os.cpu_count() or 1
    if cores >= 4:
        # Near-linear on real cores: two workers must deliver at least
        # 1.35x of serial wall time (perfect would be ~2x minus pool
        # startup; CI containers with throttled or shared cores are
        # excluded by the gate).
        assert wall_ratio >= 1.35, (
            f"2-worker fleet run only {wall_ratio:.2f}x faster than serial "
            f"on a {cores}-core machine"
        )
    else:
        print(f"(scaling gate skipped: {cores} core(s))")


def test_fleet_report_is_cheap(benchmark, tmp_path):
    from repro.fleet import fleet_report, open_fleet_store

    run_fleet(_scenario(), tmp_path / "fleet", jobs=1)
    store = open_fleet_store(tmp_path / "fleet")
    report = run_once(benchmark, lambda: fleet_report(store))
    assert report.devices == DEVICES
    payload = json.dumps(report.percentiles)
    print(f"\nreport over {report.devices} devices: {len(payload)} summary bytes")
