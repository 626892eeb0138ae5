"""repro-trace: generate, collect and inspect traces from the command line.

Subcommands::

    repro-trace list
        Show the 25 applications and their published headline statistics.

    repro-trace generate Twitter -o twitter.csv [--requests N] [--seed S]
        Synthesize a calibrated trace and write it as CSV.

    repro-trace collect Twitter -o twitter.csv [--requests N] [--seed S]
        Collect a trace closed-loop on the reference device (timestamps
        included, as BIOtracer would record them).

    repro-trace stack Messaging -o trace.csv [--duration SECONDS]
        Collect a trace mechanistically through the simulated Android
        stack.

    repro-trace convert blkparse.txt -o trace.csv
        Convert Linux blkparse text output into the repro CSV format.

    repro-trace stats trace.csv [--engine {batch,streaming}]
        Print the Table III / Table IV style statistics of a trace file.
        Both engines produce byte-identical tables (the metric-layer
        contract); ``--engine streaming`` folds the trace chunk by chunk
        through the same registry metrics the batch kernels use.

    repro-trace metrics list
        Show the metric registry: one definition per statistic, with its
        execution engines and cross-chunk carry state.

    repro-trace store pack trace.csv -o store-dir [--chunk-rows N]
    repro-trace store pack --app Twitter -o store-dir [--requests N]
    repro-trace store pack --blkparse blkparse.txt -o store-dir
        Pack a trace into a chunked columnar store directory.

    repro-trace store info store-dir [--verify]
        Show the store's manifest (schema, chunk index, checksums).

    repro-trace store cat store-dir -o trace.csv
        Stream a store back out as trace CSV, chunk by chunk.

    repro-trace store stats store-dir
        The ``stats`` table, computed out-of-core through the metric
        registry (one memory-mapped chunk resident at a time).

    repro-trace store repair store-dir [--source trace.csv]
        Detect and undo store damage: quarantine torn/corrupt chunks,
        rebuild them from the source trace (checksum-verified), or
        finalize a killed writer's store from its crash journal.

    repro-trace replay APP [--telemetry OUT.json] [--span-store DIR]
                           [--flame] [--requests N] [--seed S]
        Replay APP open-loop on the reference device with a telemetry
        sink attached: print the exact latency decomposition totals and
        optionally export a Chrome-trace JSON (chrome://tracing /
        Perfetto), a columnar span store, or a text flame summary.

    repro-trace faults APP [--profile NAME] [--seed N] [--requests N]
                           [--power-loss-at EVENT]
        Replay APP on the reference device under a seeded fault plan
        (ECC retries, bad-block remapping, power loss + recovery) and
        report the fault counters.

    repro-trace experiments [IDS ...] [--quick] [--jobs N] [--no-cache]
                            [--cache-dir DIR] ...
        Run the paper's experiments (same engine and flags as the
        ``repro-experiments`` entry point, including the parallel sharded
        runner and the on-disk result cache).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.trace import parse_blkparse, read_trace, write_trace
from repro.analysis import render_table, size_stats, timing_stats
from repro.workloads import ALL_TRACES, TABLE_III, TABLE_IV, collect, generate_trace


def _cmd_list(_args) -> int:
    from repro.workloads import TABLE_I

    rows = [
        [
            name,
            TABLE_III[name].num_requests,
            TABLE_III[name].avg_size_kib,
            TABLE_III[name].write_req_pct,
            TABLE_IV[name].arrival_rate,
            TABLE_IV[name].duration_s,
            TABLE_I.get(name, "combo: " + name.replace("/", " + ")),
        ]
        for name in ALL_TRACES
    ]
    print(render_table(
        ["App", "#Reqs", "Avg KiB", "Write %", "Req/s", "Duration s", "Definition"],
        rows,
        title="The 25 traces (published statistics)",
    ))
    return 0


def _cmd_generate(args) -> int:
    trace = generate_trace(args.app, seed=args.seed, num_requests=args.requests)
    write_trace(trace, args.output)
    print(f"wrote {len(trace)} requests to {args.output}")
    return 0


def _cmd_collect(args) -> int:
    result = collect(args.app, seed=args.seed, num_requests=args.requests)
    write_trace(result.trace, args.output)
    print(
        f"wrote {len(result.trace)} completed requests to {args.output} "
        f"(no-wait {result.device_stats.no_wait_ratio * 100:.1f}%)"
    )
    return 0


def _cmd_stack(args) -> int:
    from repro.android import collect_trace as android_collect

    result = android_collect(args.app, duration_s=args.duration, seed=args.seed)
    write_trace(result.trace, args.output)
    print(
        f"wrote {len(result.trace)} requests to {args.output} "
        f"(tracer overhead {result.tracer_stats.overhead_ratio * 100:.2f}%)"
    )
    return 0


def _cmd_convert(args) -> int:
    trace = parse_blkparse(args.input)
    write_trace(trace, args.output)
    completed = int(trace.columns().completed_mask.sum())
    print(
        f"converted {len(trace)} requests ({completed} with full timestamps) "
        f"to {args.output}"
    )
    return 0


def _stats_table(name: str, sizes, timing, completed: bool) -> str:
    """The ``stats`` report (shared by the CSV and store paths)."""
    rows = [
        ["Requests", f"{sizes.num_requests:,}"],
        ["Data size (KiB)", f"{sizes.data_size_kib:,.0f}"],
        ["Avg / max size (KiB)", f"{sizes.avg_size_kib:.1f} / {sizes.max_size_kib:.0f}"],
        ["Write requests %", f"{sizes.write_req_pct:.1f}"],
        ["Write data %", f"{sizes.write_size_pct:.1f}"],
        ["Duration (s)", f"{timing.duration_s:,.1f}"],
        ["Arrival rate (req/s)", f"{timing.arrival_rate:.2f}"],
        ["Access rate (KiB/s)", f"{timing.access_rate_kib_s:,.1f}"],
        ["Spatial / temporal locality %",
         f"{timing.spatial_locality_pct:.1f} / {timing.temporal_locality_pct:.1f}"],
    ]
    if completed:
        rows += [
            ["No-wait %", f"{timing.nowait_pct:.1f}"],
            ["Mean service / response (ms)",
             f"{timing.mean_service_ms:.2f} / {timing.mean_response_ms:.2f}"],
        ]
    return render_table(["Metric", "Value"], rows, title=f"Trace {name!r}")


def _fold_stats(chunks, name: str):
    """``(sizes, timing, completed)`` of a chunk stream, folded in one pass.

    The out-of-core engine over the two metrics the stats table prints,
    with O(1) float state; ``completed`` says whether every request
    carried device timestamps (the service/response rows).
    """
    from repro.metrics import SIZE_STATS, TIMING_STATS, MetricSetState

    state = MetricSetState([SIZE_STATS, TIMING_STATS], collapse=True)
    for chunk in chunks:
        state.update(chunk)
    values = state.finalize(name)
    completed = state.states[TIMING_STATS.name].completed
    return values[SIZE_STATS.name], values[TIMING_STATS.name], completed


def _cmd_stats(args) -> int:
    trace = read_trace(args.trace)
    if args.engine == "streaming":
        from repro.metrics import chunked

        sizes, timing, completed = _fold_stats(
            chunked(trace.columns(), 65536), trace.name
        )
    else:
        sizes, timing = size_stats(trace), timing_stats(trace)
        completed = trace.completed
    # The table itself is byte-identical across engines (asserted in
    # tests/test_cli.py); the engine note goes to stderr so it never
    # perturbs stdout comparisons.
    print(f"[engine: {args.engine}]", file=sys.stderr)
    print(_stats_table(trace.name, sizes, timing, completed))
    return 0


def _cmd_metrics_list(_args) -> int:
    from repro.metrics import ENGINES, all_metrics

    rows = [
        [
            metric.name,
            ", ".join(ENGINES),
            ", ".join(metric.carry_fields) or "-",
            metric.value_doc,
        ]
        for metric in all_metrics()
    ]
    print(render_table(
        ["Metric", "Engines", "Carry state", "Value"],
        rows,
        title="Metric registry (one definition per statistic)",
    ))
    return 0


def _cmd_store_pack(args) -> int:
    from repro.store import StoreWriter, pack

    sources = [bool(args.input), bool(args.app), bool(args.blkparse)]
    if sum(sources) != 1:
        print("store pack: give exactly one of INPUT.csv, --app or --blkparse",
              file=sys.stderr)
        return 2
    if args.app:
        trace = generate_trace(args.app, seed=args.seed, num_requests=args.requests)
        manifest = pack(trace, args.output, chunk_rows=args.chunk_rows,
                        overwrite=args.force)
    elif args.blkparse:
        from pathlib import Path

        from repro.trace import iter_requests

        writer = StoreWriter(
            args.output,
            name=Path(args.blkparse).stem,
            metadata={"source": "blkparse"},
            chunk_rows=args.chunk_rows,
            overwrite=args.force,
        )
        for batch in iter_requests(args.blkparse):
            writer.append_requests(batch)
        manifest = writer.close()
    else:
        trace = read_trace(args.input)
        manifest = pack(trace, args.output, chunk_rows=args.chunk_rows,
                        overwrite=args.force)
    nbytes = sum(info["nbytes"] for info in manifest["chunks"])
    print(
        f"packed {manifest['total_rows']:,} requests into {len(manifest['chunks'])} "
        f"chunk(s) ({nbytes:,} bytes) at {args.output}"
    )
    return 0


def _cmd_store_info(args) -> int:
    from repro.store import open_store

    store = open_store(args.store)
    if args.verify:
        store.verify()
    meta = store.metadata
    rows = [
        ["Name", store.name],
        ["Requests", f"{len(store):,}"],
        ["Chunks", f"{store.num_chunks}"],
        ["Bytes", f"{sum(info['nbytes'] for info in store.chunk_infos):,}"],
        ["Arrival sorted", "yes" if store.arrival_sorted else "no"],
        ["Verified", "ok" if args.verify else "not checked"],
    ]
    for key in sorted(meta):
        rows.append([f"meta:{key}", meta[key]])
    print(render_table(["Field", "Value"], rows, title=f"Store {str(args.store)!r}"))
    if args.chunks:
        chunk_rows = [
            [i, info["file"], f"{info['rows']:,}", f"{info['min_arrival_us']:,.0f}",
             f"{info['max_arrival_us']:,.0f}", info["sha256"][:12]]
            for i, info in enumerate(store.chunk_infos)
        ]
        print(render_table(
            ["#", "File", "Rows", "Min arrival us", "Max arrival us", "SHA-256"],
            chunk_rows,
        ))
    return 0


def _cmd_store_cat(args) -> int:
    from repro.store import open_store
    from repro.trace.io import format_header, format_rows

    store = open_store(args.store)
    written = 0
    with open(args.output, "w", newline="") as handle:
        handle.write(format_header(store.name, store.metadata))
        for chunk in store.iter_chunks():
            handle.write(format_rows(chunk))
            written += len(chunk)
    print(f"wrote {written:,} requests to {args.output}")
    return 0


def _cmd_store_stats(args) -> int:
    from repro.store import open_store

    store = open_store(args.store)
    sizes, timing, completed = _fold_stats(
        store.iter_chunks(chunk_rows=args.chunk_rows), store.name
    )
    print("[engine: streaming (out-of-core)]", file=sys.stderr)
    print(_stats_table(store.name, sizes, timing, completed))
    return 0


def _cmd_store_repair(args) -> int:
    from repro.store import StoreError, repair

    source = read_trace(args.source) if args.source else None
    try:
        report = repair(args.store, source=source)
    except StoreError as error:
        print(f"store repair: {error}", file=sys.stderr)
        return 1
    print(report.describe())
    return 0


def _cmd_faults(args) -> int:
    from repro.emmc import four_ps
    from repro.faults import FaultPlan, replay_with_faults, stats_digest

    plan = FaultPlan.profile(args.profile, seed=args.seed)
    if args.power_loss_at is not None:
        plan = plan.with_overrides(power_loss_at_event=args.power_loss_at)
    trace = generate_trace(args.app, seed=args.seed, num_requests=args.requests)
    result = replay_with_faults(four_ps(), trace, plan)
    stats = result.stats
    rows = [
        ["Requests served", f"{len(result.trace):,}"],
        ["Read retries (ECC)", f"{stats.read_retries:,}"],
        ["Corrected reads", f"{stats.corrected_reads:,}"],
        ["Uncorrectable reads", f"{stats.uncorrectable_reads:,}"],
        ["Retry backoff (us)", f"{stats.read_retry_backoff_us:,.0f}"],
        ["Program failures", f"{stats.program_failures:,}"],
        ["Erase failures", f"{stats.erase_failures:,}"],
        ["Bad blocks retired", f"{stats.bad_blocks_retired:,}"],
        ["Spare blocks consumed", f"{stats.spare_blocks_consumed:,}"],
        ["Remap-migrated slots", f"{stats.remap_migrated_slots:,}"],
        ["Power-loss recoveries", f"{stats.recoveries:,}"],
    ]
    if result.recovery is not None:
        rows += [
            ["Power cut at (us)", f"{result.recovery.cut_us:,.0f}"],
            ["Resumed at (us)", f"{result.recovery.resumed_us:,.0f}"],
            ["Remapped entries", f"{result.recovery.remapped_entries:,}"],
            ["Requests resubmitted", f"{result.resubmitted:,}"],
        ]
    rows.append(["Stats digest", stats_digest(stats)[:16]])
    print(render_table(
        ["Counter", "Value"],
        rows,
        title=f"Fault replay {args.app!r} (profile {args.profile!r}, seed {args.seed})",
    ))
    return 0


def _cmd_replay(args) -> int:
    from repro.emmc import EmmcDevice, four_ps
    from repro.sim import Host
    from repro.telemetry import (
        COMPONENTS,
        Telemetry,
        chrome_trace,
        flame_summary,
        pack_spans,
    )

    sink = Telemetry()
    sink.meta["app"] = args.app
    sink.meta["seed"] = args.seed
    trace = generate_trace(args.app, seed=args.seed, num_requests=args.requests)
    device = EmmcDevice(four_ps(), telemetry=sink)
    result = Host(device).replay(trace.without_timing())
    stats = result.stats

    totals = {name: 0.0 for name in COMPONENTS}
    for dec in sink.decompositions:
        for name, value in dec.components.items():
            totals[name] += value
    response_total = sum(stats.response_us)
    engine = result.engine
    if result.fallback_reasons:
        engine += ": " + "; ".join(result.fallback_reasons)
    rows = [
        ["Engine", engine],
        ["Requests served", f"{len(result.trace):,}"],
        ["Mean response (ms)", f"{response_total / max(len(result.trace), 1) / 1000:.3f}"],
        ["Spans recorded", f"{len(sink.spans):,}"],
        ["Events recorded", f"{len(sink.events) + len(sink.kernel_events):,}"],
    ]
    for name in COMPONENTS:
        share = 100.0 * totals[name] / response_total if response_total else 0.0
        rows.append([f"  {name} (us)", f"{totals[name]:,.1f} ({share:.1f}%)"])
    print(render_table(
        ["Metric", "Value"],
        rows,
        title=f"Telemetry replay {args.app!r} (seed {args.seed})",
    ))
    if args.telemetry:
        chrome_trace(sink, args.telemetry)
        print(f"wrote Chrome trace to {args.telemetry} (load in chrome://tracing)")
    if args.span_store:
        manifest = pack_spans(sink, args.span_store, overwrite=args.force)
        print(
            f"packed {manifest['total_rows']:,} spans into "
            f"{len(manifest['chunks'])} chunk(s) at {args.span_store}"
        )
    if args.flame:
        print(flame_summary(sink))
    return 0


def _cmd_experiments_argv(rest: List[str]) -> int:
    from repro.experiments.runner import main as experiments_main

    return experiments_main(rest)


def _cmd_experiments(args) -> int:
    return _cmd_experiments_argv(list(args.rest))


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro-trace argument parser."""
    parser = argparse.ArgumentParser(prog="repro-trace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the 25 applications").set_defaults(fn=_cmd_list)

    for name, fn, help_text in (
        ("generate", _cmd_generate, "synthesize a calibrated trace"),
        ("collect", _cmd_collect, "collect closed-loop on the reference device"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("app", choices=ALL_TRACES, metavar="APP")
        cmd.add_argument("-o", "--output", required=True)
        cmd.add_argument("--requests", type=int, default=None)
        cmd.add_argument("--seed", type=int, default=20150614)
        cmd.set_defaults(fn=fn)

    stack = sub.add_parser("stack", help="collect via the simulated Android stack")
    stack.add_argument("app", metavar="APP")
    stack.add_argument("-o", "--output", required=True)
    stack.add_argument("--duration", type=float, default=300.0)
    stack.add_argument("--seed", type=int, default=0)
    stack.set_defaults(fn=_cmd_stack)

    convert = sub.add_parser("convert", help="convert blkparse text to trace CSV")
    convert.add_argument("input")
    convert.add_argument("-o", "--output", required=True)
    convert.set_defaults(fn=_cmd_convert)

    stats = sub.add_parser("stats", help="print statistics of a trace CSV")
    stats.add_argument("trace")
    stats.add_argument("--engine", choices=("batch", "streaming"), default="batch",
                       help="execution engine; both print byte-identical tables")
    stats.set_defaults(fn=_cmd_stats)

    metrics = sub.add_parser("metrics", help="inspect the metric registry")
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)
    metrics_list = metrics_sub.add_parser(
        "list", help="show every registered metric and its engines"
    )
    metrics_list.set_defaults(fn=_cmd_metrics_list)

    store = sub.add_parser("store", help="chunked columnar trace stores")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    pack_cmd = store_sub.add_parser("pack", help="pack a trace into a store")
    pack_cmd.add_argument("input", nargs="?", default=None,
                          help="trace CSV to pack (or use --app/--blkparse)")
    pack_cmd.add_argument("--app", choices=ALL_TRACES, metavar="APP", default=None,
                          help="synthesize APP and pack it directly")
    pack_cmd.add_argument("--blkparse", default=None, metavar="FILE",
                          help="stream-convert blkparse text into the store")
    pack_cmd.add_argument("-o", "--output", required=True, help="store directory")
    pack_cmd.add_argument("--chunk-rows", type=int, default=65536)
    pack_cmd.add_argument("--requests", type=int, default=None)
    pack_cmd.add_argument("--seed", type=int, default=20150614)
    pack_cmd.add_argument("-f", "--force", action="store_true",
                          help="replace an existing store at the destination")
    pack_cmd.set_defaults(fn=_cmd_store_pack)

    info_cmd = store_sub.add_parser("info", help="show a store's manifest")
    info_cmd.add_argument("store")
    info_cmd.add_argument("--verify", action="store_true",
                          help="re-hash every chunk against the manifest")
    info_cmd.add_argument("--chunks", action="store_true",
                          help="also list the per-chunk index")
    info_cmd.set_defaults(fn=_cmd_store_info)

    cat_cmd = store_sub.add_parser("cat", help="stream a store out as trace CSV")
    cat_cmd.add_argument("store")
    cat_cmd.add_argument("-o", "--output", required=True)
    cat_cmd.set_defaults(fn=_cmd_store_cat)

    sstats_cmd = store_sub.add_parser(
        "stats", help="out-of-core statistics via the streaming summaries"
    )
    sstats_cmd.add_argument("store")
    sstats_cmd.add_argument("--chunk-rows", type=int, default=None,
                            help="re-chunk the stream (default: stored chunks)")
    sstats_cmd.set_defaults(fn=_cmd_store_stats)

    repair_cmd = store_sub.add_parser(
        "repair", help="quarantine/rebuild damaged chunks, finalize crashed writes"
    )
    repair_cmd.add_argument("store")
    repair_cmd.add_argument("--source", default=None, metavar="TRACE.csv",
                            help="original trace, for checksum-verified rebuilds")
    repair_cmd.set_defaults(fn=_cmd_store_repair)

    from repro.faults import PROFILES

    faults = sub.add_parser(
        "faults", help="replay an app under a seeded device fault plan"
    )
    faults.add_argument("app", choices=ALL_TRACES, metavar="APP")
    faults.add_argument("--profile", choices=sorted(PROFILES), default="flaky")
    faults.add_argument("--seed", type=int, default=20150614)
    faults.add_argument("--requests", type=int, default=None)
    faults.add_argument("--power-loss-at", type=int, default=None, metavar="EVENT",
                        help="cut power before the EVENT-th kernel event, then recover")
    faults.set_defaults(fn=_cmd_faults)

    replay = sub.add_parser(
        "replay", help="replay an app with telemetry and export the trace"
    )
    replay.add_argument("app", choices=ALL_TRACES, metavar="APP")
    replay.add_argument("--requests", type=int, default=None)
    replay.add_argument("--seed", type=int, default=20150614)
    replay.add_argument("--telemetry", default=None, metavar="OUT.json",
                        help="write a Chrome-trace JSON (chrome://tracing)")
    replay.add_argument("--span-store", default=None, metavar="DIR",
                        help="pack the spans into a columnar span store")
    replay.add_argument("--flame", action="store_true",
                        help="print the text flame summary")
    replay.add_argument("-f", "--force", action="store_true",
                        help="replace an existing span store at the destination")
    replay.set_defaults(fn=_cmd_replay)

    experiments = sub.add_parser(
        "experiments",
        help="run the paper's experiments (parallel engine + result cache)",
        add_help=False,  # everything is forwarded to repro-experiments
    )
    experiments.add_argument("rest", nargs=argparse.REMAINDER)
    experiments.set_defaults(fn=_cmd_experiments)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "experiments":
        # Forward verbatim (argparse's REMAINDER mis-handles a leading
        # option such as ``experiments --list``).
        return _cmd_experiments_argv(argv[1:])
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
