"""Machine-readable performance report for replay, telemetry and fleet.

Measures five headline numbers and writes them to ``BENCH_PR10.json``
(CI uploads the file as a build artifact)::

    PYTHONHASHSEED=0 PYTHONPATH=src python tools/bench_report.py --out BENCH_PR10.json

* **replay** -- single-trace qd=1 replay throughput (requests/s) on the
  event kernel vs the two-pass fast path;
* **battery** -- the Fig. 8 benchmark battery (six traces x three
  schemes) wall milliseconds, kernel vs fast;
* **telemetry** -- kernel replay battery with no sink vs a recording
  :class:`~repro.telemetry.Telemetry` sink (the enabled-overhead factor
  guarded by ``benchmarks/test_bench_telemetry.py``);
* **fleet** -- population throughput (devices/s) of
  :func:`repro.fleet.run_fleet` serial vs two workers, with the
  manifest digest proving both runs produced the same bytes;
* **sweep** -- wall seconds of a quick experiment sweep with the
  dispatcher in its default (``auto``) mode.

Timing methodology: machine noise on shared runners dwarfs the
millisecond differences under test, so kernel/fast pairs are measured
**interleaved** (kernel, fast, kernel, fast, ...) and the best of
``--rounds`` repetitions per mode is reported.  Speedups computed from
interleaved minima are stable where back-to-back means are not.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager


@contextmanager
def _fastpath(mode):
    """Temporarily pin REPRO_REPLAY_FASTPATH to ``mode``."""
    from repro.replay import REPLAY_FASTPATH_ENV

    previous = os.environ.get(REPLAY_FASTPATH_ENV)
    os.environ[REPLAY_FASTPATH_ENV] = mode
    try:
        yield
    finally:
        if previous is None:
            del os.environ[REPLAY_FASTPATH_ENV]
        else:
            os.environ[REPLAY_FASTPATH_ENV] = previous


def _interleaved(kernel_fn, fast_fn, rounds):
    """Best wall seconds per mode over ``rounds`` interleaved repetitions."""
    kernel_best = fast_best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        with _fastpath("off"):
            kernel_fn()
        kernel_best = min(kernel_best, time.perf_counter() - started)
        started = time.perf_counter()
        with _fastpath("require"):
            fast_fn()
        fast_best = min(fast_best, time.perf_counter() - started)
    return kernel_best, fast_best


def bench_replay(app, requests, seed, rounds):
    """Single-trace replay: requests/s on kernel vs fast path."""
    from repro.emmc import EmmcDevice, four_ps
    from repro.sim import Host
    from repro.workloads import generate_trace

    config = four_ps()
    trace = generate_trace(app, seed=seed, num_requests=requests).without_timing()
    trace.columns()  # pre-built so both modes replay from the same arrays

    def replay():
        Host(EmmcDevice(config)).replay(trace)

    kernel_s, fast_s = _interleaved(replay, replay, rounds)
    return {
        "app": app,
        "scheme": "4PS",
        "requests": requests,
        "kernel_s": round(kernel_s, 4),
        "fast_s": round(fast_s, 4),
        "kernel_req_per_s": round(requests / kernel_s, 1),
        "fast_req_per_s": round(requests / fast_s, 1),
        "speedup": round(kernel_s / fast_s, 2),
    }


def bench_battery(requests, seed, rounds):
    """The Fig. 8 benchmark battery: wall ms, kernel vs fast path."""
    from repro.experiments import fig8

    apps = ["Booting", "Installing", "CameraVideo", "Movie", "Twitter", "Facebook"]

    def battery():
        fig8.run(seed=seed, num_requests=requests, apps=apps)

    kernel_s, fast_s = _interleaved(battery, battery, rounds)
    return {
        "apps": apps,
        "requests": requests,
        "kernel_ms": round(kernel_s * 1e3, 1),
        "fast_ms": round(fast_s * 1e3, 1),
        "speedup": round(kernel_s / fast_s, 2),
    }


def bench_telemetry(apps, requests, seed, rounds):
    """Kernel replay battery: no sink vs a recording telemetry sink."""
    from repro.emmc import EmmcDevice, four_ps
    from repro.sim import Host
    from repro.telemetry import Telemetry
    from repro.workloads import generate_trace

    config = four_ps()
    traces = [
        generate_trace(app, seed=seed, num_requests=requests).without_timing()
        for app in apps
    ]

    def battery(with_sink):
        spans = 0
        for trace in traces:
            sink = Telemetry() if with_sink else None
            Host(EmmcDevice(config, telemetry=sink)).replay(trace)
            if sink is not None:
                spans += len(sink.spans)
        return spans

    # Both modes pin the kernel: the sink forces it anyway, and timing
    # kernel-to-kernel isolates the recording cost itself.
    disabled_best = enabled_best = float("inf")
    spans = 0
    with _fastpath("off"):
        for _ in range(rounds):
            started = time.perf_counter()
            battery(with_sink=False)
            disabled_best = min(disabled_best, time.perf_counter() - started)
            started = time.perf_counter()
            spans = battery(with_sink=True)
            enabled_best = min(enabled_best, time.perf_counter() - started)
    return {
        "apps": list(apps),
        "requests": requests,
        "disabled_ms": round(disabled_best * 1e3, 1),
        "enabled_ms": round(enabled_best * 1e3, 1),
        "slowdown": round(enabled_best / disabled_best, 2),
        "spans_per_run": spans,
    }


def bench_fleet(devices, requests, seed, rounds):
    """Fleet executor: devices/s serial vs two workers, same bytes."""
    import hashlib
    import tempfile
    from pathlib import Path

    from repro.fleet import FleetScenario, run_fleet
    from repro.store import manifest_path

    scenario = FleetScenario(
        devices=devices,
        name="bench",
        seed=seed,
        requests_per_device=requests,
        apps={"Twitter": 2.0, "Music": 1.0, "Messaging": 1.0},
        configs={"small-4PS": 1.0, "small-HPS": 1.0},
        rate_factor_range=(0.5, 2.0),
    )

    def digest(path):
        return hashlib.sha256(manifest_path(path).read_bytes()).hexdigest()

    serial_best = parallel_best = float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        serial_out = Path(tmp) / "serial"
        parallel_out = Path(tmp) / "parallel"
        for _ in range(rounds):
            started = time.perf_counter()
            run_fleet(scenario, serial_out, jobs=1, overwrite=True)
            serial_best = min(serial_best, time.perf_counter() - started)
            started = time.perf_counter()
            run_fleet(scenario, parallel_out, jobs=2, overwrite=True)
            parallel_best = min(parallel_best, time.perf_counter() - started)
        identical = digest(serial_out) == digest(parallel_out)
        manifest_sha = digest(serial_out)
    return {
        "devices": devices,
        "requests_per_device": requests,
        "serial_s": round(serial_best, 4),
        "two_worker_s": round(parallel_best, 4),
        "serial_devices_per_s": round(devices / serial_best, 1),
        "two_worker_devices_per_s": round(devices / parallel_best, 1),
        "wall_speedup": round(serial_best / parallel_best, 2),
        "bytes_identical": identical,
        "manifest_sha256": manifest_sha,
    }


def bench_sweep(ids, num_requests, seed):
    """Wall seconds of a quick sweep with the dispatcher on auto."""
    from repro.experiments import parallel
    from repro.experiments.cache import NullCache

    started = time.perf_counter()
    summary = parallel.execute(
        ids=list(ids), seed=seed, num_requests=num_requests, jobs=1, cache=NullCache()
    )
    wall_s = time.perf_counter() - started
    return {
        "ids": list(ids),
        "num_requests": num_requests,
        "wall_s": round(wall_s, 2),
        "compute_s": round(summary.compute_s, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_PR10.json")
    parser.add_argument("--rounds", type=int, default=3,
                        help="interleaved repetitions per mode (default 3)")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--replay-requests", type=int, default=4000)
    parser.add_argument("--battery-requests", type=int, default=2500)
    parser.add_argument("--telemetry-apps", nargs="*",
                        default=["Booting", "CameraVideo", "Twitter"])
    parser.add_argument("--telemetry-requests", type=int, default=1200)
    parser.add_argument("--fleet-devices", type=int, default=120)
    parser.add_argument("--fleet-requests", type=int, default=200)
    parser.add_argument("--sweep-ids", nargs="*", default=["fig8", "fig9"],
                        help="experiments timed in the sweep section")
    parser.add_argument("--sweep-requests", type=int, default=1500)
    parser.add_argument("--skip-sweep", action="store_true")
    args = parser.parse_args(argv)

    report = {
        "replay": bench_replay("Booting", args.replay_requests, args.seed, args.rounds),
        "battery": bench_battery(args.battery_requests, args.seed, args.rounds),
        "telemetry": bench_telemetry(
            args.telemetry_apps, args.telemetry_requests, args.seed, args.rounds
        ),
        "fleet": bench_fleet(
            args.fleet_devices, args.fleet_requests, args.seed, args.rounds
        ),
    }
    if not args.skip_sweep:
        report["sweep"] = bench_sweep(args.sweep_ids, args.sweep_requests, args.seed)
    report["meta"] = {
        "rounds": args.rounds,
        "seed": args.seed,
        "python": sys.version.split()[0],
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
