"""Plain-text rendering of experiment results.

The benchmarks and the CLI print the reproduced tables/figures as text
tables: one row per swept parameter value, one column per strategy plus the
theoretical model.  Values are the mean waste ratios; the full candlestick
statistics are available from the :class:`SweepResult`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.experiments.theory import theoretical_waste
from repro.scenarios.runner import CampaignResult
from repro.stats.summary import DistributionSummary

__all__ = ["SweepResult", "render_sweep", "render_sweep_detailed"]


@dataclass
class SweepResult:
    """Result of a one-dimensional parameter sweep.

    Attributes
    ----------
    parameter_name:
        Name of the swept platform parameter (for reporting).
    parameter_values:
        The sweep axis, in evaluation order.
    strategies:
        Strategies evaluated for each axis value.
    waste:
        ``waste[strategy][i]`` is the waste-ratio summary of ``strategy`` at
        ``parameter_values[i]``.
    theory:
        ``theory[i]`` is the theoretical lower bound at ``parameter_values[i]``.
    """

    parameter_name: str
    parameter_values: list[float]
    strategies: list[str]
    waste: dict[str, list[DistributionSummary]] = field(default_factory=dict)
    theory: list[float] = field(default_factory=list)

    @classmethod
    def from_campaign(
        cls,
        result: CampaignResult,
        *,
        parameter_name: str,
        parameter_values: Sequence[float],
    ) -> "SweepResult":
        """Sweep view of a one-axis campaign: one scenario per axis value.

        The theoretical bound of each row is computed on the row's own
        platform and workload, on the same scale as the simulated waste
        ratios (wasted fraction of total resources, see LowerBoundResult).
        """
        scenarios = [outcome.scenario for outcome in result.outcomes]
        return cls(
            parameter_name=parameter_name,
            parameter_values=[float(value) for value in parameter_values],
            strategies=list(result.strategies),
            waste={
                strategy: [outcome.summaries[strategy] for outcome in result.outcomes]
                for strategy in result.strategies
            },
            theory=[
                theoretical_waste(scenario.workload, scenario.platform).waste_fraction
                for scenario in scenarios
            ],
        )

    def series(self, strategy: str) -> list[float]:
        """Mean waste ratio of ``strategy`` along the sweep axis."""
        return [summary.mean for summary in self.waste[strategy]]

    def best_strategy_at(self, index: int) -> str:
        """Strategy with the lowest mean waste at ``parameter_values[index]``."""
        return min(self.strategies, key=lambda s: self.waste[s][index].mean)


def render_sweep(result: SweepResult, *, title: str, value_format: str = "{:g}") -> str:
    """Compact table of mean waste ratios (plus the theoretical bound)."""
    col = 18
    lines = [title, ""]
    header = result.parameter_name.ljust(30) + "".join(
        name.rjust(col) for name in result.strategies + ["theoretical-model"]
    )
    lines.append(header)
    lines.append("-" * len(header))
    for index, value in enumerate(result.parameter_values):
        row = value_format.format(value).ljust(30)
        for strategy in result.strategies:
            row += f"{result.waste[strategy][index].mean:>{col}.3f}"
        row += f"{result.theory[index]:>{col}.3f}"
        lines.append(row)
    return "\n".join(lines)


def render_sweep_detailed(result: SweepResult, *, title: str) -> str:
    """Long-form rendering including the candlestick statistics of each cell."""
    lines = [title, ""]
    for index, value in enumerate(result.parameter_values):
        lines.append(f"{result.parameter_name} = {value:g}")
        lines.append(f"  theoretical-model : {result.theory[index]:.3f}")
        for strategy in result.strategies:
            summary = result.waste[strategy][index]
            lines.append(f"  {strategy:<18}: {summary.format()}")
        lines.append("")
    return "\n".join(lines)
