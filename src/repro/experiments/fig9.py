"""Fig. 9: space utilization of 8PS and HPS, normalized to 4PS.

Paper headlines: HPS always achieves the same space utilization as 4PS
(no padding is ever written); against 8PS its best gain is 24.2 % (Music)
and the average gain is 13.1 %.

Fig. 9 is a second readout of Fig. 8's replays (Section V-B replays each
trace once per scheme on a brand-new device): its shard worker is
:func:`repro.experiments.fig8.replay_app`, and :func:`merge` reads the
``"utilization"`` half of those payloads.  The experiment engine keys a
shard unit by its worker and unit, so when both figures run together each
(trace, scheme) pair replays once and both merges consume the payload.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis import render_table
from repro.workloads import DEFAULT_SEED, FIG9_HPS_VS_8PS, INDIVIDUAL_APPS

from .common import ExperimentResult
from .fig8 import replay_app
from .spec import ExperimentSpec, ShardPlan


def merge(
    per_app: Dict[str, Dict[str, Dict[str, float]]],
    seed: int = DEFAULT_SEED,
    num_requests: Optional[int] = None,
) -> ExperimentResult:
    """Assemble the Fig. 9 report from per-app ``fig8.replay_app`` payloads.

    Reads only the ``"utilization"`` half and copies it: Fig. 8 merges the
    same payload objects.
    """
    del seed, num_requests  # assembly is a pure function of the payloads
    ordered = [app for app in INDIVIDUAL_APPS if app in per_app]
    utilization: Dict[str, Dict[str, float]] = {}
    rows = []
    gains = []
    for app in ordered:
        per_scheme = dict(per_app[app]["utilization"])
        utilization[app] = per_scheme
        gain = per_scheme["HPS"] / per_scheme["8PS"] - 1.0 if per_scheme["8PS"] else 0.0
        gains.append(gain)
        rows.append(
            [
                app,
                per_scheme["8PS"] / per_scheme["4PS"],
                per_scheme["HPS"] / per_scheme["4PS"],
                f"{gain * 100:.1f}%",
            ]
        )
    average = sum(gains) / len(gains) if gains else 0.0
    footer = (
        f"HPS vs 8PS: best {max(gains) * 100:.1f}%, average {average * 100:.1f}%  "
        f"(paper: best {FIG9_HPS_VS_8PS['best'][1] * 100:.1f}% on "
        f"{FIG9_HPS_VS_8PS['best'][0]}, average {FIG9_HPS_VS_8PS['average'] * 100:.1f}%)"
    ) if gains else ""
    table = render_table(
        ["App", "8PS / 4PS", "HPS / 4PS", "HPS vs 8PS"], rows
    )
    return ExperimentResult(
        experiment_id="fig9",
        title="Space utilization normalized to 4PS",
        table=table + "\n" + footer,
        data={"utilization": utilization, "gains": dict(zip(ordered, gains))},
    )


def run(
    seed: int = DEFAULT_SEED,
    num_requests: Optional[int] = None,
    apps: Optional[List[str]] = None,
) -> ExperimentResult:
    """Measure space utilization per scheme; normalize to 4PS."""
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
    experiment_id="fig9",
    title="Space utilization of 8PS and HPS normalized to 4PS",
    runner=run,
    cost="heavy",
    shards=ShardPlan(units=tuple(INDIVIDUAL_APPS), worker=replay_app, merge=merge),
)


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
