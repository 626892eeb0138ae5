"""The benchmark's workload bodies, each run once per fresh interpreter.

``run.py`` starts this file as a child process for every sample::

    python3 perfbench/workloads.py --workload NAME --seed N --mode MODE --result OUT.json

A fresh interpreter per sample matters: several module-level memos
survive ``clear_experiment_caches()`` -- ``generator._temporal_cache``,
``collection._sync_cache`` and the ``fig8``/``fig9`` ``_CONFIGS`` -- so
a second run inside one process skips the calibration pilots that every
user run pays.

A sample has three phases: *setup* (interpreter start, imports and
inputs; the parent times it from its own spawn timestamp to the child's
``ready_s``; a set-up child then probes the host's speed with
:func:`probe_s`), the *call* (host wall, user+sys CPU of the process and
its pool workers, and peak RSS, with :func:`probe_s` sampled on a thread
throughout), and an output check after the timers stop.
The check yields *units*: a digest of each experiment's ``data``
payload, or of the fleet's per-device digests and of its rollup, plus
reference-engine spot checks picked by the seed
(``REPRO_REPLAY_FASTPATH=off`` replays and fleet re-simulation).  In
``traced`` mode the :mod:`layers` tracer wraps the layer boundaries for
the call and its per-layer totals go into the record.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

#: ``repro-experiments --quick`` shortens traces to 1500 requests.  The
#: closed-loop calibration pilots cost the same at any trace length, so
#: a shorter sweep would weigh them more than any user run does, and a
#: shorter battery would weigh device set-up and trace synthesis more
#: and planner fallbacks less.
SWEEP_REQUESTS = 1500
BATTERY_REQUESTS = 4000
FLEET_DEVICES = 768
FLEET_REQUESTS = 400
#: Fleet pool size; capped at the usable cores.
FLEET_JOBS = 2


def nproc() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def _sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


@contextmanager
def _kernel_replays():
    """Pin the event kernel (the fast path's reference engine)."""
    from repro.replay import REPLAY_FASTPATH_ENV

    previous = os.environ.get(REPLAY_FASTPATH_ENV)
    os.environ[REPLAY_FASTPATH_ENV] = "off"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[REPLAY_FASTPATH_ENV]
        else:
            os.environ[REPLAY_FASTPATH_ENV] = previous


@dataclass
class Outputs:
    """What the output check of one sample produced."""

    #: Unit name -> digest; compared across samples and with pinned files.
    digests: Dict[str, str]
    #: Reference-engine spot checks decided inside the child.
    checks: Dict[str, bool]
    #: Per-layer metrics that need no wrapper (read from measured samples).
    extras: Dict[str, float]


#: Per-layer metrics only the fleet has; the other workloads report 0.
FLEET_EXTRAS = (
    "store.fleet_bytes", "fleet.pool.compute_s", "fleet.pool.efficiency", "fleet.pool.idle_s",
)


def _extras(compute_s: Dict[str, float], fleet: Dict[str, float]) -> Dict[str, float]:
    """The same wrapper-free per-layer names for every workload."""
    from repro.experiments import registry

    extras = {
        f"experiments.{experiment_id}.compute_s": compute_s.get(experiment_id, 0.0)
        for experiment_id in registry.REGISTRY
    }
    extras.update({name: fleet.get(name, 0.0) for name in FLEET_EXTRAS})
    return extras


@dataclass(frozen=True)
class ExperimentSweep:
    """``parallel.execute(ids, num_requests, jobs=1, cache=NullCache())``.

    The same call as ``repro-experiments [ids] --jobs 1 --no-cache``.
    """

    ids: Tuple[str, ...]  # empty: every registered experiment
    num_requests: int
    #: Runs in one process; its measured call is already the serial one.
    parallel = False

    def prepare(self, seed: int, scratch: Path):
        from repro.experiments import parallel, registry  # noqa: F401 (setup cost)

        return {"seed": seed}

    def call(self, state, serial: bool):
        from repro.experiments import parallel
        from repro.experiments.cache import NullCache

        return parallel.execute(
            ids=list(self.ids) or None,
            seed=state["seed"],
            num_requests=self.num_requests,
            jobs=1,
            cache=NullCache(),
        )

    def outputs(self, state, summary) -> Outputs:
        from repro.experiments import registry
        from repro.experiments.runner import _jsonable

        seed = state["seed"]
        digests = {
            result.experiment_id: _sha256_json(_jsonable(result.data))
            for result in summary.results
        }
        checks: Dict[str, bool] = {}
        # Kernel spot check: one shard of one sharded replay figure, both
        # picked by the seed, re-run on the event kernel, must equal the
        # fast-path result.
        replays = [result for result in summary.results
                   if result.experiment_id in ("fig8", "fig9")]
        for result in replays[seed % max(1, len(replays)):][:1]:
            shards = registry.get_spec(result.experiment_id).shards
            unit = shards.units[seed % len(shards.units)]
            with _kernel_replays():
                payload = shards.worker(unit, seed, self.num_requests)
            reference = _jsonable(shards.merge({unit: payload}, seed, self.num_requests).data)
            measured = _jsonable(result.data)
            checks[f"{result.experiment_id}.kernel.{unit}"] = all(
                measured[key].get(unit) == per_unit[unit]
                for key, per_unit in reference.items()
            )
        compute = {item.experiment_id: item.compute_s for item in summary.telemetry}
        return Outputs(digests, checks, _extras(compute, {}))

    def cleanup(self, state) -> None:
        pass


@dataclass(frozen=True)
class FleetRun:
    """``run_fleet`` of a mixed population into a scratch directory."""

    devices: int
    requests_per_device: int
    jobs: int

    @property
    def parallel(self) -> bool:
        """Whether the measured call uses a worker pool."""
        return min(self.jobs, nproc()) > 1

    def prepare(self, seed: int, scratch: Path):
        from repro.fleet import FleetScenario

        scenario = FleetScenario(
            devices=self.devices,
            name="fleet_mixed",
            seed=seed,
            requests_per_device=self.requests_per_device,
            apps=(("Idle", 3.0), ("Twitter", 2.0), ("Messaging", 1.5), ("Music", 1.0)),
            configs=(("small-4PS", 1.0), ("small-HPS", 1.0)),
            fault_profiles=(("none", 3.0), ("transient-reads", 1.0)),
            rate_factor_range=(0.5, 2.0),
        )
        scratch.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="fleet-", dir=scratch))
        return {"seed": seed, "scenario": scenario, "workdir": workdir}

    def call(self, state, serial: bool):
        from repro.fleet import run_fleet

        jobs = 1 if serial else max(1, min(self.jobs, nproc()))
        return run_fleet(state["scenario"], state["workdir"] / "store", jobs=jobs)

    def outputs(self, state, result) -> Outputs:
        from repro.fleet import FleetStore, FleetStoreError, simulate_device

        store = FleetStore(result.path)
        column = store.column("stats_digest64")
        digests = {
            "devices": _sha256_json([f"{int(value):016x}" for value in column]),
            "rollup": _sha256_json(store.request_summary),
        }
        checks: Dict[str, bool] = {}
        try:
            store.verify()
            checks["store.verify"] = len(store) == self.devices
        except FleetStoreError:
            checks["store.verify"] = False
        # Re-simulate two devices alone, on the event kernel: the row the
        # pooled fast-path run stored must not depend on either choice.
        picker = random.Random(state["seed"])
        for device in picker.sample(range(self.devices), 2):
            with _kernel_replays():
                alone = simulate_device(state["scenario"], device)
            checks[f"device.{device}.kernel"] = alone.row["stats_digest64"] == int(
                column[device]
            )
        busy_s = result.jobs * result.wall_s
        fleet = {
            "fleet.pool.compute_s": result.compute_s,
            "fleet.pool.efficiency": result.compute_s / busy_s,
            "fleet.pool.idle_s": max(0.0, busy_s - result.compute_s),
            "store.fleet_bytes": float(
                sum(path.stat().st_size for path in Path(result.path).iterdir())
            ),
        }
        return Outputs(digests, checks, _extras({}, fleet))

    def cleanup(self, state) -> None:
        shutil.rmtree(state["workdir"], ignore_errors=True)


#: The benchmark's workloads, by name.
WORKLOADS = {
    "quick_sweep": ExperimentSweep(ids=(), num_requests=SWEEP_REQUESTS),
    "fig89_battery": ExperimentSweep(ids=("fig8", "fig9"), num_requests=BATTERY_REQUESTS),
    "fleet_mixed": FleetRun(
        devices=FLEET_DEVICES, requests_per_device=FLEET_REQUESTS, jobs=FLEET_JOBS
    ),
}


#: Seconds between host-speed probes while a call runs.
PROBE_PERIOD_S = 0.25
#: Probes a set-up child takes after it is ready.
SETUP_PROBES = 16


def probe_s() -> float:
    """Thread CPU seconds one fixed slice of interpreter work takes now.

    Heap and dict operations, the simulator's own mix, sized to finish
    within one GIL switch interval (about 4 ms).  The shared hosts this
    runs on drift in speed by up to 2.5x over minutes, and the probe
    slows with them: sampled during repeated battery calls, its median
    followed the call's time at a correlation of 0.88.  Being benchmark
    code, it is the same on both sides of any comparison.
    """
    started = time.thread_time()
    heap: list = []
    table = {}
    total = 0
    for i in range(4_000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if len(heap) > 64:
            key, item = heapq.heappop(heap)
            table[item & 4095] = (key, total)
            total += key
    return time.thread_time() - started


@contextmanager
def probing():
    """Probe the host's speed every :data:`PROBE_PERIOD_S` on a thread.

    Yields the list the probe times go into.  Sampling through the whole
    call, not just around it, is what lets the ratio follow a drift
    that sets in mid-call.  The probes cost about 2% of one core.
    """
    times: list = []
    stop = threading.Event()

    def sample() -> None:
        while True:
            times.append(probe_s())
            if stop.wait(PROBE_PERIOD_S):
                return

    thread = threading.Thread(target=sample, name="host-speed-probe", daemon=True)
    thread.start()
    try:
        yield times
    finally:
        stop.set()
        thread.join()


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


#: Child modes: prepare only; the measured call as users run it; the same
#: call forced onto one process; and that serial call under the tracer.
MODES = ("setup", "measure", "serial", "traced")


def run_sample(workload, seed: int, mode: str, index: int, scratch: Path) -> dict:
    """Prepare, measure and check one sample of ``workload`` in this process."""
    state = workload.prepare(seed, scratch)
    record = {
        "mode": mode,
        "seed": seed,
        "index": index,
        "env": {
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
            "repro": sorted(name for name in os.environ if name.startswith("REPRO_")),
        },
    }
    tracer = sink = None
    if mode == "traced":
        from repro.telemetry import Telemetry

        from layers import Tracer

        sink = Telemetry()
        tracer = Tracer(sink=sink).install()
    record["ready_s"] = time.perf_counter()
    if mode == "setup":
        record["probe_s"] = statistics.median(probe_s() for _ in range(SETUP_PROBES))
        workload.cleanup(state)
        return record
    try:
        with probing() as probes:
            cpu_before = _cpu_s()
            started = time.perf_counter()
            result = workload.call(state, serial=mode != "measure")
            wall_s = time.perf_counter() - started
            cpu_s = _cpu_s() - cpu_before
        peak_kib = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    record["probes"] = probes
    record["probe_s"] = statistics.median(probes)
    try:
        outputs = workload.outputs(state, result)
    finally:
        workload.cleanup(state)
    record.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mib=peak_kib / 1024.0,
        digests=outputs.digests,
        checks=outputs.checks,
        extras=outputs.extras,
    )
    if tracer is not None:
        record["layers"] = tracer.metrics(wall_s)
        record["hits"] = tracer.hits
        record["sink"] = sink
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--result", required=True, help="where to write the JSON record")
    parser.add_argument("--chrome-trace", help="traced mode: write a Chrome trace here")
    args = parser.parse_args(argv)
    out = Path(args.result)
    record = run_sample(
        WORKLOADS[args.workload], args.seed, args.mode, args.index, out.parent / "tmp"
    )
    sink = record.pop("sink", None)
    if sink is not None and args.chrome_trace:
        from repro.telemetry import chrome_trace

        sink.meta.update(workload=args.workload, seed=args.seed)
        chrome_trace(sink, args.chrome_trace)
    out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
