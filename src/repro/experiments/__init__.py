"""Evaluation harness: one module per table / figure of the paper.

* :mod:`repro.experiments.table1` — Table 1, the APEX workload characteristics.
* :mod:`repro.experiments.theory` — the theoretical lower bound used as the
  reference curve in Figures 1-3 (Theorem 1).
* :mod:`repro.experiments.figure1` — Figure 1, waste ratio vs. aggregate
  file-system bandwidth on Cielo.
* :mod:`repro.experiments.figure2` — Figure 2, waste ratio vs. node MTBF on
  Cielo under constrained bandwidth.
* :mod:`repro.experiments.figure3` — Figure 3, minimum bandwidth required to
  reach 80 % efficiency on the prospective system.
* :mod:`repro.experiments.ablation` — the fixed-period and interference-model
  ablations.
* :mod:`repro.experiments.report` — :class:`SweepResult`, the Figure 1/2
  view of a one-axis campaign, and its plain-text table rendering.

Every figure and ablation is a :class:`~repro.scenarios.campaign.Campaign`
(or, for the Figure 3 bisection probes, a single
:class:`~repro.scenarios.spec.Scenario`) evaluated by
:class:`~repro.scenarios.runner.CampaignRunner`: one strategy on one
platform variant, repeated over Monte-Carlo seeds.
"""

from repro.experiments.report import SweepResult
from repro.experiments.table1 import table1_rows, render_table1
from repro.experiments.theory import steady_state_classes, theoretical_waste
from repro.experiments.figure1 import Figure1Config, render_figure1, run_figure1
from repro.experiments.figure2 import Figure2Config, render_figure2, run_figure2
from repro.experiments.figure3 import Figure3Config, Figure3Result, render_figure3, run_figure3
from repro.experiments.ablation import (
    AblationCell,
    fixed_period_ablation,
    interference_model_ablation,
    render_ablation,
)
from repro.experiments.export import (
    figure3_to_csv,
    figure3_to_rows,
    sweep_to_csv,
    sweep_to_json,
    sweep_to_rows,
    write_text,
)
from repro.experiments.plotting import ascii_chart, sweep_chart

__all__ = [
    "SweepResult",
    "table1_rows",
    "render_table1",
    "steady_state_classes",
    "theoretical_waste",
    "Figure1Config",
    "run_figure1",
    "render_figure1",
    "Figure2Config",
    "run_figure2",
    "render_figure2",
    "Figure3Config",
    "Figure3Result",
    "run_figure3",
    "render_figure3",
    "AblationCell",
    "fixed_period_ablation",
    "interference_model_ablation",
    "render_ablation",
    "sweep_to_rows",
    "sweep_to_csv",
    "sweep_to_json",
    "figure3_to_rows",
    "figure3_to_csv",
    "write_text",
    "ascii_chart",
    "sweep_chart",
]
