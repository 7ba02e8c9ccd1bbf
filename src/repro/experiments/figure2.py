"""Figure 2 — waste ratio vs. node MTBF on Cielo at 40 GB/s.

The paper fixes the Cielo file-system bandwidth at a constrained 40 GB/s and
varies the individual-node MTBF from 2 years (≈1 h system MTBF) to 50 years
(≈1 day system MTBF).  Expected behaviour:

* ``oblivious-fixed`` / ``ordered-fixed`` stay saturated around 80 % waste
  for every MTBF (the I/O subsystem is the bottleneck);
* ``oblivious-daly`` / ``ordered-daly`` are poor at low MTBF but approach
  the bound as failures become rare;
* ``orderednb-*`` and ``least-waste`` reach the theoretical bound already at
  a 4-year node MTBF.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec.runner import ParallelRunner
from repro.experiments.figure1 import run_cielo_sweep
from repro.experiments.report import SweepResult, render_sweep
from repro.iosched.registry import STRATEGIES

__all__ = ["Figure2Config", "run_figure2", "render_figure2"]

#: MTBF axis of the paper's Figure 2 (years, log-scale in the plot).
PAPER_MTBFS_YEARS: tuple[float, ...] = (2.0, 5.0, 10.0, 20.0, 50.0)


@dataclass(frozen=True)
class Figure2Config:
    """Parameters of the Figure 2 reproduction (laptop-scale defaults)."""

    node_mtbf_years: tuple[float, ...] = (2.0, 5.0, 20.0, 50.0)
    bandwidth_gbs: float = 40.0
    strategies: tuple[str, ...] = STRATEGIES
    horizon_days: float = 6.0
    warmup_days: float = 1.0
    cooldown_days: float = 1.0
    num_runs: int = 3
    base_seed: int = 0
    field_label: str = field(default="Node MTBF (years)", repr=False)


def run_figure2(
    config: Figure2Config | None = None, runner: ParallelRunner | None = None
) -> SweepResult:
    """Run the Figure 2 sweep and return the per-strategy waste summaries.

    ``runner`` optionally parallelises and/or caches the Monte-Carlo
    repetitions (see :mod:`repro.exec`); results are backend-independent.
    """
    config = config or Figure2Config()
    return run_cielo_sweep(
        config,
        runner,
        key="node_mtbf_years",
        values=config.node_mtbf_years,
        bandwidth_gbs=config.bandwidth_gbs,
    )


def render_figure2(result: SweepResult) -> str:
    """Plain-text rendering of the Figure 2 data (one row per MTBF value)."""
    title = (
        "Figure 2: waste ratio vs. node MTBF "
        "(Cielo, 40 GB/s aggregated bandwidth, LANL APEX workload)"
    )
    return render_sweep(result, title=title, value_format="{:.0f}")
