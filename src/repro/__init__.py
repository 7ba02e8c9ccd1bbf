"""repro — reproduction of *Optimal Cooperative Checkpointing for Shared
High-Performance Computing Platforms* (Hérault et al., IPDPS 2018).

The package provides three layers:

* :mod:`repro.core` — the analytical models of the paper: the Young/Daly
  period, the single-job and platform waste models, the constrained
  lower bound of Theorem 1 and the Least-Waste scoring heuristic.
* the simulation substrate — a from-scratch discrete-event engine
  (:mod:`repro.sim`), a platform model with failure injection and a shared
  parallel file system (:mod:`repro.platform`), an application/job model
  (:mod:`repro.apps`), I/O scheduling strategies (:mod:`repro.iosched`) and
  an online first-fit job scheduler (:mod:`repro.jobsched`).
* the evaluation harness — workload definitions (:mod:`repro.workloads`),
  the top-level simulator (:mod:`repro.simulation`), Monte-Carlo statistics
  (:mod:`repro.stats`), parallel execution and result caching
  (:mod:`repro.exec`), broker-less distributed execution over a filesystem
  work spool (:mod:`repro.distributed`), per-figure experiments
  (:mod:`repro.experiments`), declarative scenario campaigns
  (:mod:`repro.scenarios`) and the per-cell waste drill-down
  (:mod:`repro.trace`).

Quickstart
----------

>>> from repro import run_simulation, cielo_platform, apex_workload
>>> platform = cielo_platform(bandwidth_gbs=80.0)
>>> result = run_simulation(
...     platform=platform,
...     workload=apex_workload(),
...     strategy="least-waste",
...     horizon_days=4.0,
...     seed=1,
... )
>>> 0.0 <= result.waste_ratio
True
"""

from __future__ import annotations

from repro.core.daly import daly_period, young_period, job_mtbf, system_mtbf
from repro.core.waste import job_waste, platform_waste, optimal_job_waste
from repro.core.lower_bound import (
    LowerBoundResult,
    SteadyStateClass,
    optimal_periods,
    platform_lower_bound,
)
from repro.core.least_waste import (
    CkptCandidate,
    IOCandidate,
    expected_waste,
    select_candidate,
)
from repro.platform.failures import FailureModel
from repro.platform.spec import PlatformSpec
from repro.apps.app_class import ApplicationClass
from repro.apps.checkpoint_policy import CheckpointPolicy, DalyPolicy, FixedPolicy
from repro.iosched.registry import (
    STRATEGIES,
    StrategySpec,
    canonical_strategy,
    make_strategy,
    parse_strategy,
    register_strategy,
    strategy_kinds,
    strategy_names,
)
from repro.workloads.apex import APEX_CLASSES, apex_workload
from repro.workloads.cielo import cielo_platform
from repro.workloads.prospective import prospective_platform, prospective_workload
from repro.workloads.generator import WorkloadSpec, generate_jobs
from repro.simulation.config import SimulationConfig
from repro.simulation.results import SimulationResult, WasteBreakdown
from repro.simulation.simulator import Simulation, run_simulation
from repro.stats.summary import DistributionSummary, summarize
from repro.stats.montecarlo import derive_seeds
from repro.exec.cache import ResultCache
from repro.exec.digest import config_digest
from repro.exec.runner import ParallelRunner
from repro.distributed.spool import WorkSpool
from repro.distributed.worker import SpoolWorker
from repro.scenarios.campaign import Axis, AxisPoint, Campaign
from repro.scenarios.presets import campaign_names, make_campaign
from repro.scenarios.report import campaign_to_csv, render_campaign
from repro.scenarios.runner import CampaignResult, CampaignRunner
from repro.scenarios.spec import Scenario
from repro.trace import (
    WasteDecomposition,
    decomposition_to_csv,
    drill_down_cell,
    render_decomposition,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "daly_period",
    "young_period",
    "job_mtbf",
    "system_mtbf",
    "job_waste",
    "platform_waste",
    "optimal_job_waste",
    "LowerBoundResult",
    "SteadyStateClass",
    "optimal_periods",
    "platform_lower_bound",
    "IOCandidate",
    "CkptCandidate",
    "expected_waste",
    "select_candidate",
    # platform / apps
    "FailureModel",
    "PlatformSpec",
    "ApplicationClass",
    "CheckpointPolicy",
    "DalyPolicy",
    "FixedPolicy",
    # strategies
    "STRATEGIES",
    "StrategySpec",
    "canonical_strategy",
    "make_strategy",
    "parse_strategy",
    "register_strategy",
    "strategy_kinds",
    "strategy_names",
    # workloads
    "APEX_CLASSES",
    "apex_workload",
    "cielo_platform",
    "prospective_platform",
    "prospective_workload",
    "WorkloadSpec",
    "generate_jobs",
    # simulation
    "SimulationConfig",
    "SimulationResult",
    "WasteBreakdown",
    "Simulation",
    "run_simulation",
    # stats
    "DistributionSummary",
    "summarize",
    "derive_seeds",
    # parallel execution
    "ParallelRunner",
    "ResultCache",
    "config_digest",
    # distributed execution
    "SpoolWorker",
    "WorkSpool",
    # scenario campaigns
    "Axis",
    "AxisPoint",
    "Campaign",
    "CampaignResult",
    "CampaignRunner",
    "Scenario",
    "campaign_names",
    "campaign_to_csv",
    "make_campaign",
    "render_campaign",
    # per-cell drill-down
    "WasteDecomposition",
    "decomposition_to_csv",
    "drill_down_cell",
    "render_decomposition",
]
