"""Ablation studies for the design choices called out in DESIGN.md.

Two ablations complement the paper's figures:

* :func:`fixed_period_ablation` — how sensitive the *Fixed* strategies are
  to the choice of the fixed checkpoint period (the paper uses one hour;
  §7 cites Arunagiri et al. on deliberately sub-optimal longer periods).
* :func:`interference_model_ablation` — how much of the Oblivious
  strategies' loss comes from the linear-interference assumption itself,
  by re-running the same scenario under the adversarial models of
  :mod:`repro.platform.interference` (paper footnote 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.apps.app_class import ApplicationClass
from repro.errors import ConfigurationError
from repro.exec.runner import ParallelRunner
from repro.iosched.registry import parse_strategy
from repro.platform.interference import (
    DegradingInterference,
    InterferenceModel,
    LinearInterference,
)
from repro.platform.spec import PlatformSpec
from repro.scenarios.campaign import Axis, AxisPoint, Campaign
from repro.scenarios.runner import CampaignRunner
from repro.scenarios.spec import Scenario
from repro.stats.summary import DistributionSummary
from repro.units import HOUR

__all__ = [
    "AblationCell",
    "fixed_period_ablation",
    "interference_model_ablation",
    "render_ablation",
]


@dataclass(frozen=True)
class AblationCell:
    """One ablation measurement: a label and its waste-ratio summary."""

    label: str
    waste: DistributionSummary


def _run_study(
    platform: PlatformSpec,
    workload: Sequence[ApplicationClass],
    strategy: str,
    axis: Axis,
    *,
    horizon_days: float,
    num_runs: int,
    base_seed: int,
    runner: ParallelRunner | None,
) -> list[AblationCell]:
    """Run ``strategy`` at every point of ``axis``; each point names its row."""
    edge_days = min(1.0, horizon_days / 4.0)
    base = Scenario(
        name=axis.name,
        platform=platform,
        workload=tuple(workload),
        strategies=(strategy,),
        num_runs=num_runs,
        base_seed=base_seed,
        horizon_days=horizon_days,
        warmup_days=edge_days,
        cooldown_days=edge_days,
    )
    result = CampaignRunner(runner or ParallelRunner()).run(
        Campaign(name=f"{axis.name} ablation", base=base, axes=(axis,))
    )
    (column,) = result.strategies
    return [
        AblationCell(label=outcome.scenario.name, waste=outcome.summaries[column])
        for outcome in result.outcomes
    ]


def fixed_period_ablation(
    platform: PlatformSpec,
    workload: Sequence[ApplicationClass],
    *,
    strategy: str = "oblivious-fixed",
    periods_hours: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    horizon_days: float = 4.0,
    num_runs: int = 2,
    base_seed: int = 0,
    runner: ParallelRunner | None = None,
) -> list[AblationCell]:
    """Waste of a Fixed-period strategy as the fixed period varies.

    The paper's Fixed variants always use one hour; this ablation shows how
    much of their loss is attributable to that specific choice rather than
    to the fixed-period policy itself.  ``strategy`` must use the fixed
    policy and leave its period to the sweep.
    """
    spec = parse_strategy(strategy)
    if spec.get("policy") != "fixed":
        raise ConfigurationError("fixed_period_ablation only applies to *-fixed strategies")
    if "period_s" in dict(spec.params):
        raise ConfigurationError(
            f"strategy {strategy!r} pins its own period_s, but fixed_period_ablation "
            "sweeps the period; drop period_s from the spec"
        )
    axis = Axis(
        name="periods_hours",
        points=tuple(
            AxisPoint(
                label=f"{hours:g}",
                overrides={"fixed_period_s": hours * HOUR, "name": f"{strategy}, P = {hours:g} h"},
            )
            for hours in periods_hours
        ),
    )
    return _run_study(
        platform,
        workload,
        strategy,
        axis,
        horizon_days=horizon_days,
        num_runs=num_runs,
        base_seed=base_seed,
        runner=runner,
    )


def interference_model_ablation(
    platform: PlatformSpec,
    workload: Sequence[ApplicationClass],
    *,
    strategy: str = "oblivious-daly",
    alphas: Sequence[float] = (0.0, 0.25, 1.0),
    horizon_days: float = 4.0,
    num_runs: int = 2,
    base_seed: int = 0,
    runner: ParallelRunner | None = None,
) -> list[AblationCell]:
    """Waste of one strategy under increasingly adversarial interference.

    ``alpha = 0`` is the paper's linear model; larger values destroy
    aggregate throughput when transfers overlap, which hurts the Oblivious
    strategies (whose transfers always overlap) far more than the token-based
    ones (which never overlap).
    """
    points = []
    for alpha in alphas:
        model: InterferenceModel
        if alpha == 0.0:
            model = LinearInterference()
            label = f"{strategy}, linear interference"
        else:
            model = DegradingInterference(alpha=alpha)
            label = f"{strategy}, degrading interference (alpha={alpha:g})"
        points.append(
            AxisPoint(label=f"{alpha:g}", overrides={"interference": model, "name": label})
        )
    return _run_study(
        platform,
        workload,
        strategy,
        Axis(name="alphas", points=tuple(points)),
        horizon_days=horizon_days,
        num_runs=num_runs,
        base_seed=base_seed,
        runner=runner,
    )


def render_ablation(title: str, cells: Sequence[AblationCell]) -> str:
    """Plain-text table of an ablation study."""
    width = max((len(cell.label) for cell in cells), default=10) + 2
    lines = [title, ""]
    lines.append("configuration".ljust(width) + "mean waste   [d1 q1 | q3 d9]")
    lines.append("-" * (width + 32))
    for cell in cells:
        lines.append(cell.label.ljust(width) + cell.waste.format())
    return "\n".join(lines)
