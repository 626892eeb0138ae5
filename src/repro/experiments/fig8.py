"""Fig. 8: mean response time of 4PS vs 8PS vs HPS on the 18 traces.

Paper headlines: HPS beats 4PS on every trace -- by up to 86 % (Booting),
no less than 24 % (Movie), 61.9 % on average -- and 8PS performs very
similarly to HPS.  The RAM buffer is disabled, each trace replays on a
brand-new device (Section V-B).

The per-trace replays are fully independent, so this module is split into
:func:`replay_app` (one trace on all three schemes -- the parallel shard)
and :func:`merge` (deterministic reassembly); :func:`run` simply composes
the two, which is what keeps the ``--jobs N`` output bit-identical to the
serial path.  Each scheme's one replay yields both readouts the paper
takes from it: the mean response time reported here and the space
utilization that :mod:`repro.experiments.fig9` merges from the same
:func:`replay_app` payloads, so the experiment engine runs each
(trace, scheme) replay once for both figures.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis import render_table
from repro.workloads import DEFAULT_SEED, FIG8_HPS_VS_4PS, INDIVIDUAL_APPS

from repro.emmc import eight_ps, four_ps, hps

from .common import ExperimentResult, cached_trace, replay_on
from .spec import ExperimentSpec, ShardPlan

SCHEMES = ("4PS", "8PS", "HPS")

#: Scheme configs are immutable; build them once per process instead of
#: once per shard call (devices are still constructed fresh per replay).
_CONFIGS: Optional[Dict[str, object]] = None


def _configs():
    global _CONFIGS
    if _CONFIGS is None:
        _CONFIGS = {"4PS": four_ps(), "8PS": eight_ps(), "HPS": hps()}
    return _CONFIGS


def replay_app(
    app: str, seed: int = DEFAULT_SEED, num_requests: Optional[int] = None
) -> Dict[str, Dict[str, float]]:
    """Replay one trace on all three schemes (one independent shard).

    Returns both readouts of each scheme's single replay:
    ``{"mrt": {scheme: ms}, "utilization": {scheme: ratio}}``.
    """
    # Strip timing once and pre-build the columnar view: the three scheme
    # replays then share the same column arrays zero-copy.
    trace = cached_trace(app, seed=seed, num_requests=num_requests).without_timing()
    trace.columns()
    mrt: Dict[str, float] = {}
    utilization: Dict[str, float] = {}
    for scheme, config in _configs().items():
        stats = replay_on(config, trace).stats
        mrt[scheme] = stats.mean_response_ms
        utilization[scheme] = stats.space_utilization
    return {"mrt": mrt, "utilization": utilization}


def merge(
    per_app: Dict[str, Dict[str, Dict[str, float]]],
    seed: int = DEFAULT_SEED,
    num_requests: Optional[int] = None,
) -> ExperimentResult:
    """Assemble the Fig. 8 report from per-app :func:`replay_app` payloads.

    Reads only the ``"mrt"`` half and copies it: Fig. 9 merges the same
    payload objects.
    """
    del seed, num_requests  # assembly is a pure function of the payloads
    ordered = [app for app in INDIVIDUAL_APPS if app in per_app]
    mrt: Dict[str, Dict[str, float]] = {}
    rows = []
    improvements = []
    for app in ordered:
        per_scheme = dict(per_app[app]["mrt"])
        mrt[app] = per_scheme
        improvement = 1.0 - per_scheme["HPS"] / per_scheme["4PS"]
        improvements.append(improvement)
        rows.append(
            [
                app,
                per_scheme["4PS"],
                per_scheme["8PS"],
                per_scheme["HPS"],
                f"{improvement * 100:.1f}%",
            ]
        )
    average = sum(improvements) / len(improvements) if improvements else 0.0
    footer = (
        f"HPS vs 4PS: best {max(improvements) * 100:.1f}%, "
        f"worst {min(improvements) * 100:.1f}%, average {average * 100:.1f}%  "
        f"(paper: best {FIG8_HPS_VS_4PS['best'][1] * 100:.0f}% on "
        f"{FIG8_HPS_VS_4PS['best'][0]}, worst {FIG8_HPS_VS_4PS['worst'][1] * 100:.0f}% on "
        f"{FIG8_HPS_VS_4PS['worst'][0]}, average {FIG8_HPS_VS_4PS['average'] * 100:.1f}%)"
    ) if improvements else ""
    table = render_table(
        ["App", "4PS MRT ms", "8PS MRT ms", "HPS MRT ms", "HPS vs 4PS"], rows
    )
    return ExperimentResult(
        experiment_id="fig8",
        title="Mean response time of the three schemes",
        table=table + "\n" + footer,
        data={"mrt": mrt, "improvements": dict(zip(ordered, improvements))},
    )


def run(
    seed: int = DEFAULT_SEED,
    num_requests: Optional[int] = None,
    apps: Optional[List[str]] = None,
) -> ExperimentResult:
    """Replay every trace on all three schemes and compare MRT."""
    selected = [
        app
        for app in INDIVIDUAL_APPS
        if apps is None or app in apps
    ]
    per_app = {
        app: replay_app(app, seed=seed, num_requests=num_requests)
        for app in selected
    }
    return merge(per_app, seed=seed, num_requests=num_requests)


SPEC = ExperimentSpec(
    experiment_id="fig8",
    title="Mean response time of 4PS/8PS/HPS on the 18 traces",
    runner=run,
    cost="heavy",
    shards=ShardPlan(units=tuple(INDIVIDUAL_APPS), worker=replay_app, merge=merge),
)


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
