"""Figure 1 — waste ratio vs. aggregate file-system bandwidth on Cielo.

The paper varies the Cielo file-system bandwidth from 40 to 160 GB/s with a
2-year node MTBF and plots, for each of the seven strategies, the waste
ratio over a 60-day segment (candlesticks over at least 1 000 Monte-Carlo
repetitions) together with the theoretical lower bound.

The observations this experiment should reproduce (at reduced scale):

* ``oblivious-fixed`` and ``ordered-fixed`` stay above ~40 % waste even at
  the full 160 GB/s;
* ``orderednb-*`` and ``least-waste`` drop quickly below ~20 % and approach
  the theoretical model;
* ``oblivious-daly`` and ``ordered-daly`` start as badly as the Fixed
  variants and only slowly improve with bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.exec.runner import ParallelRunner
from repro.experiments.report import SweepResult, render_sweep
from repro.iosched.registry import STRATEGIES
from repro.scenarios.campaign import Axis, AxisPoint, Campaign
from repro.scenarios.runner import CampaignRunner
from repro.scenarios.spec import Scenario
from repro.workloads.apex import apex_workload
from repro.workloads.cielo import cielo_platform

if TYPE_CHECKING:  # pragma: no cover - figure2 imports this module
    from repro.experiments.figure2 import Figure2Config

__all__ = ["Figure1Config", "run_cielo_sweep", "run_figure1", "render_figure1"]

#: Bandwidth axis of the paper's Figure 1 (GB/s).
PAPER_BANDWIDTHS_GBS: tuple[float, ...] = (40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0)


@dataclass(frozen=True)
class Figure1Config:
    """Parameters of the Figure 1 reproduction.

    The defaults are laptop-scale; pass ``bandwidths_gbs=PAPER_BANDWIDTHS_GBS``,
    ``horizon_days=60`` and ``num_runs=1000`` to match the paper exactly.
    """

    bandwidths_gbs: tuple[float, ...] = (40.0, 80.0, 120.0, 160.0)
    node_mtbf_years: float = 2.0
    strategies: tuple[str, ...] = STRATEGIES
    horizon_days: float = 6.0
    warmup_days: float = 1.0
    cooldown_days: float = 1.0
    num_runs: int = 3
    base_seed: int = 0
    field_label: str = field(default="System Aggregated Bandwidth (GB/s)", repr=False)


def run_cielo_sweep(
    config: Figure1Config | Figure2Config,
    runner: ParallelRunner | None,
    *,
    key: str,
    values: Sequence[float],
    **fixed: float,
) -> SweepResult:
    """Evaluate every strategy of ``config`` on Cielo/APEX at each ``key`` value.

    The sweep is a one-axis campaign.  Its base scenario is Cielo at the
    first axis value (``fixed`` sets the other :func:`cielo_platform`
    parameter); each axis point sets ``key`` and rebuilds the APEX workload
    against the overridden platform, whose I/O volumes depend on its memory.
    """
    axis = Axis(
        name=key,
        points=tuple(
            AxisPoint(label=f"{value:g}", overrides={key: value, "workload": apex_workload})
            for value in values
        ),
    )
    platform = cielo_platform(**fixed, **{key: values[0]})
    base = Scenario(
        name=key,
        platform=platform,
        workload=apex_workload(platform),
        strategies=config.strategies,
        num_runs=config.num_runs,
        base_seed=config.base_seed,
        horizon_days=config.horizon_days,
        warmup_days=config.warmup_days,
        cooldown_days=config.cooldown_days,
    )
    result = CampaignRunner(runner or ParallelRunner()).run(
        Campaign(name=f"{key} sweep", base=base, axes=(axis,))
    )
    return SweepResult.from_campaign(
        result, parameter_name=config.field_label, parameter_values=values
    )


def run_figure1(
    config: Figure1Config | None = None, runner: ParallelRunner | None = None
) -> SweepResult:
    """Run the Figure 1 sweep and return the per-strategy waste summaries.

    ``runner`` optionally parallelises and/or caches the Monte-Carlo
    repetitions (see :mod:`repro.exec`); results are backend-independent.
    """
    config = config or Figure1Config()
    return run_cielo_sweep(
        config,
        runner,
        key="bandwidth_gbs",
        values=config.bandwidths_gbs,
        node_mtbf_years=config.node_mtbf_years,
    )


def render_figure1(result: SweepResult) -> str:
    """Plain-text rendering of the Figure 1 data (one row per bandwidth)."""
    title = "Figure 1: waste ratio vs. system bandwidth (Cielo, LANL APEX workload)"
    return render_sweep(result, title=title, value_format="{:.0f}")
