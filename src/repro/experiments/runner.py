"""Run every experiment and optionally write EXPERIMENTS.md.

Command line::

    repro-experiments                 # run everything, print reports
    repro-experiments fig8 fig9      # a subset
    repro-experiments --quick        # shortened traces (smoke run)
    repro-experiments --jobs 4       # shard across 4 worker processes
    repro-experiments --no-cache     # force recomputation
    repro-experiments --cache-dir D  # result cache location
    repro-experiments --output EXPERIMENTS.md
    repro-experiments --list         # show the registry and exit

Results are cached on disk (``$REPRO_CACHE_DIR``, else
``~/.cache/repro``) keyed by experiment id, parameters, code fingerprint
and package version; a warm rerun replays from cache without recomputing
anything.  Parallel runs are bit-identical to serial ones (see
:mod:`repro.experiments.parallel`).
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import io
import json
import pstats
import sys
import time
from typing import Dict, List, Optional

from repro.workloads import DEFAULT_SEED

from . import parallel
from .cache import NullCache, ResultCache
from .common import ExperimentResult
from .registry import REGISTRY, select
from .spec import ExperimentSpec

def run_experiments(
    ids: Optional[List[str]] = None,
    seed: int = DEFAULT_SEED,
    num_requests: Optional[int] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> List[ExperimentResult]:
    """Run the selected experiments (all, in paper order, by default).

    ``jobs``/``cache`` expose the parallel engine; the defaults preserve
    the historical serial, uncached behaviour.
    """
    summary = parallel.execute(
        ids=ids, seed=seed, num_requests=num_requests, jobs=jobs, cache=cache
    )
    return summary.results


def _jsonable(value):
    """Best-effort conversion of experiment data to JSON-serializable form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _top_cumulative(profiler: cProfile.Profile, count: int = 20) -> List[str]:
    """The top ``count`` cumulative-time lines of a finished profile."""
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(count)
    lines = [line.rstrip() for line in buffer.getvalue().splitlines()]
    # Drop the header chatter up to (and including) the column header row.
    for index, line in enumerate(lines):
        if line.lstrip().startswith("ncalls"):
            return [entry for entry in lines[index:] if entry][: count + 1]
    return [entry for entry in lines if entry][:count]


def _profiled_execute(
    specs: List[ExperimentSpec],
    seed: int,
    num_requests: Optional[int],
    wall_sink=None,
) -> "tuple[parallel.RunSummary, Dict[str, List[str]]]":
    """Run each experiment serially under cProfile; merge into one summary.

    Profiling is incompatible with worker processes and with cache hits
    (both would hide the compute), so this path forces ``jobs=1`` and a
    :class:`NullCache` regardless of the other flags.
    """
    results = []
    telemetry = []
    profiles: Dict[str, List[str]] = {}
    started = time.perf_counter()
    for spec in specs:
        profiler = cProfile.Profile()
        profiler.enable()
        part = parallel.execute(
            ids=[spec.experiment_id],
            seed=seed,
            num_requests=num_requests,
            jobs=1,
            cache=NullCache(),
            wall_sink=wall_sink,
        )
        profiler.disable()
        profiles[spec.experiment_id] = _top_cumulative(profiler)
        results.extend(part.results)
        telemetry.extend(part.telemetry)
    summary = parallel.RunSummary(
        results=results,
        telemetry=telemetry,
        wall_s=time.perf_counter() - started,
        jobs=1,
    )
    return summary, profiles


def _print_registry() -> None:
    width = max(len(identifier) for identifier in REGISTRY)
    for identifier, spec in REGISTRY.items():
        shards = f", {len(spec.shards.units)} shards" if spec.shards else ""
        print(f"{identifier:<{width}}  [{spec.cost}{shards}]  {spec.title}")


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro-experiments argument parser."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--quick", action="store_true", help="shorten traces to 1500 requests"
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes (1 = serial in-process; output is identical)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument("--output", help="also write the reports to this file")
    parser.add_argument(
        "--json", help="write every experiment's structured data to this JSON file"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run each experiment under cProfile (serial, cache off) and "
            "report its top-20 cumulative lines next to the _meta summary"
        ),
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="DIR",
        help=(
            "record the run's wall-clock telemetry (per-experiment and "
            "per-shard spans, cache hit/miss events) and write DIR/"
            "experiments-trace.json (chrome://tracing) + DIR/flame.txt"
        ),
    )
    parser.add_argument(
        "--list", action="store_true", help="list the registered experiments and exit"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list:
        _print_registry()
        return 0
    num_requests = 1500 if args.quick else None
    try:
        specs: List[ExperimentSpec] = select(args.ids or ())
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    cache = NullCache() if args.no_cache else ResultCache(cache_dir=args.cache_dir)
    wall_sink = None
    if args.telemetry:
        from repro.telemetry import Telemetry

        wall_sink = Telemetry()
        wall_sink.meta["seed"] = args.seed
        wall_sink.meta["jobs"] = args.jobs
        wall_sink.meta["num_requests"] = num_requests or "full"

    started = time.time()
    profiles: Optional[Dict[str, List[str]]] = None
    if args.profile:
        summary, profiles = _profiled_execute(
            specs, args.seed, num_requests, wall_sink=wall_sink
        )
    else:
        summary = parallel.execute(
            ids=[spec.experiment_id for spec in specs],
            seed=args.seed,
            num_requests=num_requests,
            jobs=args.jobs,
            cache=cache,
            wall_sink=wall_sink,
        )
    reports: List[str] = []
    structured: Dict[str, object] = {}
    for result, telemetry in zip(summary.results, summary.telemetry):
        rendered = result.render()
        print(rendered)
        suffix = ", cache hit" if telemetry.cache == "hit" else ""
        if telemetry.shards:
            suffix += f", {telemetry.shards} shards"
        if telemetry.shared_units:
            suffix += f", {telemetry.shared_units} units shared"
        print(
            f"[{result.experiment_id} finished in {telemetry.compute_s:.1f}s"
            f"{suffix}]\n"
        )
        reports.append(rendered)
        structured[result.experiment_id] = _jsonable(result.data)
    total_wall = time.time() - started
    print(
        f"[total: {total_wall:.1f}s wall, {summary.compute_s:.1f}s compute, "
        f"jobs={summary.jobs}, speedup {summary.speedup:.2f}x]"
    )
    if cache.enabled and not args.profile:
        print(f"[{cache.stats.summary()}]")
    if profiles is not None and not args.json:
        for experiment_id, lines in profiles.items():
            print(f"\n[profile: {experiment_id}]")
            for line in lines:
                print(line)
    if wall_sink is not None:
        import os

        from repro.telemetry import chrome_trace, flame_summary

        os.makedirs(args.telemetry, exist_ok=True)
        trace_path = os.path.join(args.telemetry, "experiments-trace.json")
        chrome_trace(wall_sink, trace_path)
        with open(os.path.join(args.telemetry, "flame.txt"), "w") as handle:
            handle.write(flame_summary(wall_sink) + "\n")
        print(f"[telemetry: {trace_path} (load in chrome://tracing)]")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write("\n\n".join(reports) + "\n")
    if args.json:
        structured["_meta"] = {
            "run": summary.as_dict(),
            "seed": args.seed,
            "num_requests": num_requests,
        }
        if profiles is not None:
            structured["_profile"] = profiles
        with open(args.json, "w") as handle:
            json.dump(structured, handle, indent=2)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
