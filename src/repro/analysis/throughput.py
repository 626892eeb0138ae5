"""Throughput versus request size (Fig. 3).

The paper derives Fig. 3 from its traces: for each request size, the
average access rate of requests with that size.  We reproduce the device
side directly: issue back-to-back requests of one size at the device and
measure sustained MB/s, sweeping the sizes the figure covers (4 KB ..
256 KB for reads -- the largest read seen in the traces -- and 4 KB ..
16 MB for writes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.trace import KIB, MIB, Op, US_PER_S
from repro.emmc.device import DeviceConfig, EmmcDevice
from repro.sim import Host

#: Fig. 3's x axis, bytes.  Reads stop at 256 KB ("the largest size of a
#: read request is 256 KB"), writes continue to 16 MB.
READ_SIZES: Sequence[int] = (
    4 * KIB, 8 * KIB, 16 * KIB, 32 * KIB, 64 * KIB, 128 * KIB, 256 * KIB,
)
WRITE_SIZES: Sequence[int] = READ_SIZES + (
    512 * KIB, 1 * MIB, 2 * MIB, 4 * MIB, 8 * MIB, 16 * MIB,
)


@dataclass(frozen=True)
class ThroughputPoint:
    """Sustained throughput at one request size."""

    size_bytes: int
    mb_per_s: float


def measure_throughput(
    config: DeviceConfig,
    op: Op,
    sizes: Sequence[int],
    total_bytes_per_point: int = 32 * MIB,
) -> List[ThroughputPoint]:
    """Sustained throughput for back-to-back requests of each size.

    A fresh device is used per size; requests arrive with zero think time
    so the device is never idle (the measurement regime Fig. 3 implies for
    its per-size averages).  Sequential addressing exercises the packing-
    friendly path, like the large packed requests the paper observed.
    """
    points: List[ThroughputPoint] = []
    for size in sizes:
        device = EmmcDevice(config)
        count = max(4, total_bytes_per_point // size)
        # Wrap inside half the device so long write sweeps overwrite their
        # own data (reclaimable by GC) instead of exhausting the space.
        window = max(size, device.capacity_bytes // 2 // size * size)
        # Back to back: each request arrives at the previous completion
        # (zero think time, every request synchronous).
        columns = Host(device).replay_closed_loop(
            [index * size % window for index in range(count)],
            [size] * count,
            [op] * count,
            [0.0] * (count - 1),
            [True] * (count - 1),
        ).trace.columns()
        elapsed_s = float(columns.complete_us[-1] - columns.arrival_us[0]) / US_PER_S
        points.append(
            ThroughputPoint(size_bytes=size, mb_per_s=count * size / 1e6 / elapsed_s)
        )
    return points


def throughput_curves(
    config: DeviceConfig,
    read_sizes: Sequence[int] = READ_SIZES,
    write_sizes: Sequence[int] = WRITE_SIZES,
    total_bytes_per_point: int = 32 * MIB,
) -> Dict[str, List[ThroughputPoint]]:
    """Both Fig. 3 curves for one device configuration."""
    return {
        "read": measure_throughput(config, Op.READ, read_sizes, total_bytes_per_point),
        "write": measure_throughput(config, Op.WRITE, write_sizes, total_bytes_per_point),
    }


def trace_throughput_by_size(traces, op: Op) -> Dict[int, float]:
    """The paper's own Fig. 3 construction: per-size average access rate.

    For every request size found in replayed ``traces``, the average rate
    (size / response time) over all requests of that size and type, MB/s.
    Thin adapter over the registered per-op metric in
    :mod:`repro.metrics.throughput`: the traces pool by folding each
    one's columns in order.
    """
    from repro.metrics.throughput import THROUGHPUT_BY_SIZE_READ, THROUGHPUT_BY_SIZE_WRITE

    metric = THROUGHPUT_BY_SIZE_WRITE if op is Op.WRITE else THROUGHPUT_BY_SIZE_READ
    return metric.fold(trace.columns() for trace in traces)
