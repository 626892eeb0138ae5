"""The repository benchmark: three workloads, each sample in a cold process.

Measure one workload; the last stdout line is the JSON result::

    python3 perfbench/run.py --workload fleet_mixed --seed 2015 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
with tracing off: host wall and user+sys CPU time of the measured call
and set-up time, each rescaled to the speed of a reference host by
probes timed in the same process (:func:`workloads.probe_s`), and peak
RSS;
``--trace 1`` is a separate run that reports the per-layer metrics: it
times untraced and traced samples and writes a Chrome trace to
``.perfbench/trace-<workload>-seed<N>.json``.  ``--out FILE`` also
saves the samples and the environment (commit, Python, NumPy, cores).

Compare saved runs of a parent (A) and a change (B)::

    python3 perfbench/run.py --compare A1.json A2.json ... -- B1.json B2.json ...

Every sample is a fresh interpreter (see :mod:`workloads` for why) with
``PYTHONHASHSEED=0`` and every ``REPRO_*`` switch removed.  A run first
starts a few set-up-only children, then repeats samples (or traced
rounds) until the next one would end past ``--seconds``, and reports
medians.  A sample that does not fit twice runs once.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
EXPECTED_DIR = BENCH_DIR / "expected"
#: Scratch space for child records, fleet stores and Chrome traces.
WORK_DIR = ROOT / ".perfbench"

#: Set-up-only children per run, so ``setup_s`` is a median of several.
SETUP_SAMPLES = 5
#: A run stops its children by this many seconds (it must end by 180 s).
RUN_CAP_S = 165.0
#: Sample ``i`` of a run runs the workload at ``seed + i * SEED_STRIDE``.
SEED_STRIDE = 1_000_000
#: Thread CPU seconds :func:`workloads.probe_s` takes on the reference
#: host.  Host times are reported at that speed: a time measured while
#: the probe took ``p`` seconds is scaled by ``NOMINAL_PROBE_S / p``.
NOMINAL_PROBE_S = 0.004


def input_seed(seed: int, index: int) -> int:
    """The workload seed of a run's ``index``-th sample (or traced round).

    Every sample gets its own inputs, so a run's median averages over
    several inputs and the run-to-run spread is not one input's luck.
    """
    return seed + index * SEED_STRIDE


def child_env(base: Mapping[str, str]) -> Dict[str, str]:
    """The pinned environment every child runs with."""
    env = {name: value for name, value in base.items() if not name.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def _kill(child: subprocess.Popen) -> None:
    """Kill a child's whole session and wait for the child to end."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.communicate()


def spawn(workload: str, seed: int, mode: str, index: int, workdir: Path,
          timeout_s: float = RUN_CAP_S, chrome: Optional[Path] = None) -> Optional[dict]:
    """Run one child to completion; its record, or ``None`` if it failed."""
    result = workdir / f"{mode}-{index}.json"
    command = [
        sys.executable, str(BENCH_DIR / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--index", str(index), "--result", str(result),
    ]
    if chrome is not None:
        command += ["--chrome-trace", str(chrome)]
    spawned = time.perf_counter()
    # A session of its own, so a timeout also kills the child's pool workers.
    child = subprocess.Popen(
        command, cwd=ROOT, env=child_env(os.environ), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, errors = child.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        _kill(child)
        errors = f"timed out after {timeout_s:.0f} s"
    except BaseException:
        _kill(child)
        raise
    if child.returncode != 0 or not result.exists():
        print(f"perfbench: {workload} {mode} sample {index} failed: "
              f"{errors.strip()[-2000:]}", file=sys.stderr)
        return None
    record = json.loads(result.read_text())
    result.unlink()
    record["setup_s"] = record["ready_s"] - spawned
    return record


def run_samples(workload: str, seed: int, seconds: float, trace: bool,
                workdir: Path, chrome: Path):
    """Set-up-only children, then rounds of samples until the time is up.

    Returns ``(setups, samples)``; a failed child is a ``(mode, None)``
    pair in either list.
    """
    started = time.perf_counter()
    deadline = started + RUN_CAP_S

    def child(mode: str, index: int, chrome_out: Optional[Path] = None):
        timeout_s = max(1.0, deadline - time.perf_counter())
        return mode, spawn(workload, input_seed(seed, index), mode, index, workdir,
                           timeout_s, chrome_out)

    setups = [child("setup", 0) for _ in range(SETUP_SAMPLES)]
    modes = ["measure"]
    if trace:
        # The overhead base must run like the traced sample: in one process.
        serial = ["serial"] if workloads.WORKLOADS[workload].parallel else []
        modes += serial + ["traced"]
    samples = []
    rounds: List[float] = []
    while True:
        round_started = time.perf_counter()
        for mode in modes:
            samples.append(child(mode, len(rounds), chrome if mode == "traced" else None))
        rounds.append(time.perf_counter() - round_started)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.mean(rounds) > seconds or elapsed + max(rounds) > RUN_CAP_S:
            break
    return setups, samples


def load_pinned(seed: int) -> dict:
    """Pinned digests of a run at ``seed``, if any.

    ``{workload: {input seed: {unit: digest}}}``, one entry per sample.
    """
    path = EXPECTED_DIR / f"seed-{seed}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def check_units(setups, samples, pinned: Mapping[str, Mapping[str, str]]):
    """``(attempted, failed, mismatches)`` over every sample's units.

    A sample's digests are compared with the pinned ones for its input
    seed, else with an earlier sample of the same input (the traced and
    untraced samples of a round), so traced outputs must equal untraced
    ones and cold processes must agree.  The first sample of an unpinned
    input has nothing to compare with here (``--compare`` checks it
    against the parent's); its spot checks still count.  A failed child
    fails all of its units; a set-up child checks nothing, so it counts
    only when it fails.
    """
    seen: Dict[str, Mapping[str, str]] = {}
    per_sample = 1
    attempted = failed = 0
    mismatches: List[str] = []
    for mode, record in samples:
        if record is not None:
            per_sample = max(per_sample, len(record["digests"]) + len(record["checks"]))
    for mode, record in setups + samples:
        if record is None:
            count = 1 if mode == "setup" else per_sample
            attempted += count
            failed += count
            mismatches.append(f"{mode} sample failed")
            continue
        if mode == "setup":
            continue
        key = str(record["seed"])
        digests = record["digests"]
        reference = pinned.get(key) or seen.get(key)
        seen.setdefault(key, digests)
        names = sorted(set(reference) | set(digests)) if reference else []
        bad = [name for name in names if digests.get(name) != reference.get(name)]
        bad += [name for name, ok in record["checks"].items() if not ok]
        attempted += len(names) + len(record["checks"])
        failed += len(bad)
        mismatches += [f"{mode} sample {record['index']} (seed {key}): {name}" for name in bad]
    return attempted, failed, mismatches


def _median(records: Sequence[dict], key: str) -> float:
    return statistics.median(record[key] for record in records)


def _median_ref(records: Sequence[dict], key: str) -> float:
    """Median of the seconds ``key``, each rescaled to the reference host."""
    return statistics.median(
        record[key] * NOMINAL_PROBE_S / record["probe_s"] for record in records
    )


def end_to_end_metrics(setups, samples) -> Dict[str, float]:
    measured = [record for _, record in samples if record is not None]
    set_up = [record for _, record in setups + samples if record is not None]
    return {
        "wall_ref_s": _median_ref(measured, "wall_s"),
        "cpu_ref_s": _median_ref(measured, "cpu_s"),
        "setup_s": _median_ref(set_up, "setup_s"),
        "peak_rss_mib": _median(measured, "peak_rss_mib"),
    }


def per_layer_metrics(workload: str, samples) -> Dict[str, float]:
    by_mode: Dict[str, List[dict]] = {}
    for mode, record in samples:
        if record is not None:
            by_mode.setdefault(mode, []).append(record)
    traced, measured = by_mode.get("traced", []), by_mode.get("measure", [])
    base = by_mode.get("serial", []) if workloads.WORKLOADS[workload].parallel else measured
    if not traced or not measured or not base:
        return {}
    values = {
        name: statistics.median(record["layers"][name] for record in traced)
        for name in traced[0]["layers"]
    }
    values.update({
        name: statistics.median(record["extras"][name] for record in measured)
        for name in measured[0]["extras"]
    })
    values["trace.overhead_pct"] = 100.0 * (
        _median_ref(traced, "wall_s") / _median_ref(base, "wall_s") - 1.0
    )
    return values


def _commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment() -> Dict[str, object]:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": workloads.nproc(),
        "machine": platform.machine(),
    }


def measure(args, spec: dict) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # The build step: byte-compile once, so no sample pays for it.
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                           stdout=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: byte-compiling src failed", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    # Turn SIGTERM into SystemExit, so the running child is killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    WORK_DIR.mkdir(exist_ok=True)
    chrome = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with tempfile.TemporaryDirectory(prefix="run-", dir=WORK_DIR) as workdir:
        setups, samples = run_samples(args.workload, args.seed, args.seconds,
                                      bool(args.trace), Path(workdir), chrome)
    pinned = load_pinned(args.seed)
    attempted, failed, mismatches = check_units(
        setups, samples, {} if args.pin else pinned.get(args.workload, {})
    )
    finished = [record for _, record in samples if record is not None]
    if not finished:
        print(f"perfbench: every {args.workload} sample failed", file=sys.stderr)
        return 1
    if args.pin and failed == 0:
        pinned[args.workload] = {str(record["seed"]): record["digests"] for record in finished}
        EXPECTED_DIR.mkdir(exist_ok=True)
        (EXPECTED_DIR / f"seed-{args.seed}.json").write_text(
            json.dumps(pinned, indent=1, sort_keys=True) + "\n"
        )
    if args.trace:
        values = per_layer_metrics(args.workload, samples)
    else:
        values = end_to_end_metrics(setups, samples)
    missing = [metric["name"] for metric in declared if metric["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    counted = sum(record is not None for _, record in samples)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {counted} samples, "
          f"{len(setups)} set-ups, {attempted} units checked, {failed} failed")
    for line in mismatches[:10]:
        print(f"  mismatch: {line}")
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"  {name:<{width}}  {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        print(f"  chrome trace: {chrome}")
    else:
        measured = [record for _, record in samples if record is not None]
        print(f"  (raw medians: wall {_median(measured, 'wall_s'):.3f} s, "
              f"cpu {_median(measured, 'cpu_s'):.3f} s, "
              f"probe {_median(measured, 'probe_s') * 1e3:.3f} ms)")
    if args.out:
        document = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(),
            "samples": [{"mode": mode, **(record or {})} for mode, record in setups + samples],
            "mismatches": mismatches, "result": result,
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps(result))
    return 0


# -- comparing saved runs -----------------------------------------------------

def _quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _digests_by_seed(documents: Sequence[dict]) -> Dict[int, Mapping[str, str]]:
    """The first digests saved for each input seed, over saved runs."""
    by_seed: Dict[int, Mapping[str, str]] = {}
    for document in documents:
        for sample in document["samples"]:
            if "digests" in sample:
                by_seed.setdefault(sample["seed"], sample["digests"])
    return by_seed


def digest_mismatches(parent_docs: Sequence[dict], change_docs: Sequence[dict]) -> List[str]:
    """Units whose change digest differs from the parent's at the same input seed."""
    parent = _digests_by_seed(parent_docs)
    mismatches: List[str] = []
    for document in change_docs:
        for sample in document["samples"]:
            reference = parent.get(sample.get("seed"))
            if reference is None or "digests" not in sample:
                continue
            digests = sample["digests"]
            mismatches += [
                f"seed {sample['seed']}: {name}"
                for name in sorted(set(reference) | set(digests))
                if reference.get(name) != digests.get(name)
            ]
    return mismatches


def compare(parent_files: Sequence[str], change_files: Sequence[str], spec: dict) -> int:
    """Judge a change against its parent, per workload and end-to-end metric.

    A metric regresses when the change's median is worse than the
    parent's by more than the bound.  When the parent's own
    interquartile range is wider than the bound, that takes every change
    run being worse than every parent run, and the metric is otherwise
    *unresolved* -- unless every change run beats every parent run.  A
    gain needs a 9/10 win fraction over the paired runs and a median
    shift wider than the parent's interquartile range.  Outputs are
    checked too: a change sample whose digests differ from a parent
    sample of the same input seed fails those units, and more failed
    units than the parent's is a regression.  Exits 1 on any regression.
    """
    def load(paths):
        documents: Dict[str, List[dict]] = {}
        for path in paths:
            document = json.loads(Path(path).read_text())
            if document["trace"]:
                raise SystemExit(f"{path}: a --trace 1 run has no end-to-end metrics")
            documents.setdefault(document["workload"], []).append(document)
        return documents

    parents, changes = load(parent_files), load(change_files)
    regressions = 0
    print(f"{'workload':<14} {'metric':<13} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'worse by':>9} {'wins':>5}  verdict")
    for workload in sorted(set(parents) & set(changes)):
        a_runs = [document["result"] for document in parents[workload]]
        b_runs = [document["result"] for document in changes[workload]]
        for metric in spec["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            a = [run["metrics"][name]["value"] for run in a_runs]
            b = [run["metrics"][name]["value"] for run in b_runs]
            a_q1, a_med, a_q3 = _quartiles(a)
            b_q1, b_med, b_q3 = _quartiles(b)
            worse_by = (b_med - a_med) / a_med if lower else (a_med - b_med) / a_med
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            pairs = list(zip(a, b))
            wins = sum(better(y, x) for x, y in pairs) / len(pairs)
            all_better = all(better(y, x) for x in a for y in b)
            all_worse = all(better(x, y) for x in a for y in b)
            noisy = (a_q3 - a_q1) / a_med > bound
            if worse_by > bound and (all_worse or not noisy):
                verdict = "REGRESSION"
                regressions += 1
            elif noisy and not all_better:
                verdict = "unresolved"
            elif wins >= 0.9 and abs(b_med - a_med) > a_q3 - a_q1 and worse_by < 0:
                verdict = "gain"
            else:
                verdict = "within bound"
            print(f"{workload:<14} {name:<13} "
                  f"{f'{a_med:.4g} [{a_q1:.4g}, {a_q3:.4g}]':<30} "
                  f"{f'{b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]':<30} "
                  f"{worse_by * 100:>8.1f}% {wins:>5.2f}  {verdict} (bound {bound:.0%})")
        mismatches = digest_mismatches(parents[workload], changes[workload])
        for line in mismatches[:10]:
            print(f"{workload:<14} output differs from the parent's at {line}")
        a_failed = sum(run["failed"] for run in a_runs)
        b_failed = sum(run["failed"] for run in b_runs) + len(mismatches)
        if b_failed > a_failed or mismatches:
            print(f"{workload:<14} failed units rose from {a_failed} to {b_failed}: REGRESSION")
            regressions += 1
    return 1 if regressions else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not SPEC_FILE.exists():
        print(f"perfbench: {SPEC_FILE} is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    if argv[:1] == ["--compare"]:
        if "--" not in argv:
            print("usage: run.py --compare A.json ... -- B.json ...", file=sys.stderr)
            return 2
        split = argv.index("--")
        return compare(argv[1:split], argv[split + 1:], spec)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time of the run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also save samples and environment to this JSON file")
    parser.add_argument("--pin", action="store_true",
                        help="(re)write expected/seed-N.json from this run's outputs")
    return measure(parser.parse_args(argv), spec)


if __name__ == "__main__":
    sys.exit(main())
