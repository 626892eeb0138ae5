"""Combo-trace construction (Section III-D of the paper).

The 7 combo traces (e.g. ``Music/WB``) have their own calibrated profiles in
:mod:`repro.workloads.profiles` -- that is what the table/figure harness
uses, because the paper publishes Table III/IV rows for each combo.

This module additionally provides :func:`interleave`, the *mechanistic*
combination of two individual traces, used by the ablation benchmarks: the
paper observes that a combo's arrival and access rates generally exceed the
sum of its components (shared resources such as the memory buffer force more
I/O), which we model with a compression factor applied to both components'
time axes.
"""

from __future__ import annotations

from typing import Tuple

from repro.trace import Trace, TraceColumns

from .generator import DEFAULT_SEED, generate_trace
from .paper_data import COMBO_COMPONENTS, TABLE_IV


def rate_inflation(combo_name: str) -> float:
    """Published arrival-rate inflation of a combo over the sum of its parts.

    E.g. Music/FB arrives at 17.34 req/s while Music (1.82) plus Facebook
    (3.50) only sum to 5.32 req/s -- an inflation of ~3.26x.
    """
    first, second = COMBO_COMPONENTS[combo_name]
    combined = TABLE_IV[combo_name].arrival_rate
    parts = TABLE_IV[first].arrival_rate + TABLE_IV[second].arrival_rate
    if parts <= 0:
        raise ValueError(f"components of {combo_name} have no arrivals")
    return combined / parts


def interleave(
    first: Trace,
    second: Trace,
    name: str,
    inflation: float = 1.0,
) -> Trace:
    """Merge two traces into one concurrent-application stream.

    Both components' inter-arrival times are divided by ``inflation``
    (>= 1 speeds them up), then the request streams are merged in arrival
    order.  Timestamps are rebased to zero.
    """
    if inflation <= 0:
        raise ValueError("inflation must be positive")
    both = TraceColumns.concat([first.rebased().columns(), second.rebased().columns()])
    return Trace.from_columns(
        name,
        TraceColumns.untimed(both.arrival_us / inflation, both.lba, both.size, both.op),
        metadata={
            "combo.components": f"{first.name}+{second.name}",
            "combo.inflation": f"{inflation:.4f}",
        },
    )


def mechanistic_combo(
    combo_name: str,
    seed: int = DEFAULT_SEED,
) -> Tuple[Trace, Trace, Trace]:
    """Build a combo by interleaving its two freshly generated components.

    Returns ``(combo, first_component, second_component)``.  The inflation
    factor is taken from the published rates via :func:`rate_inflation`.
    """
    first_name, second_name = COMBO_COMPONENTS[combo_name]
    first = generate_trace(first_name, seed=seed)
    second = generate_trace(second_name, seed=seed)
    combo = interleave(first, second, combo_name, inflation=rate_inflation(combo_name))
    return combo, first, second
