"""Event-kernel benchmark: Host replay throughput on the eMMC device.

The discrete-event refactor routes every request through the shared
``EventLoop`` (arrival event, admission queue, resource frontiers,
completion event, idle timers).  This benchmark times a full-stack replay
of generated traces through :class:`repro.sim.Host` and asserts the two
properties that justify the kernel:

* throughput stays in the same order of magnitude as the pre-kernel
  inline engine (tens of thousands of requests per second of wall time);
* a deeper admission queue strictly lowers mean response time on a
  backlogged trace (the Implication 1 ablation the queue exists for).
"""

from repro.emmc import EmmcDevice, four_ps
from repro.sim import Host
from repro.workloads import generate_trace

from conftest import BENCH_SEED, run_once

#: A busy app (dense arrivals) and a sparse one (timers actually arm).
APPS = ["Installing", "Messaging"]
REQUESTS_PER_TRACE = 2500


def _replay_all():
    traces = [
        generate_trace(app, seed=BENCH_SEED, num_requests=REQUESTS_PER_TRACE)
        for app in APPS
    ]
    results = {}
    for trace in traces:
        device = EmmcDevice(four_ps())
        results[trace.name] = Host(device).replay(trace.without_timing())
    return results


def test_host_replay_throughput(benchmark):
    results = run_once(benchmark, _replay_all)
    total = sum(len(r.trace) for r in results.values())
    assert total == len(APPS) * REQUESTS_PER_TRACE
    seconds = benchmark.stats.stats.mean
    print(f"\nkernel replay: {total} requests in {seconds:.3f}s "
          f"({total / seconds:,.0f} req/s)")
    # Order-of-magnitude guard, not a tight perf gate: CI machines vary.
    assert total / seconds > 1_000


def test_queue_depth_overlap_shape():
    trace = generate_trace(
        "Installing", seed=BENCH_SEED, num_requests=800
    ).without_timing()
    mrt = {}
    for depth in (1, 4):
        device = EmmcDevice(four_ps(queue_depth=depth))
        mrt[depth] = Host(device).replay(trace).stats.mean_response_ms
    assert mrt[4] < mrt[1]
