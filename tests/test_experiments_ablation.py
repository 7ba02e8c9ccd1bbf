"""Ablation studies (repro.experiments.ablation)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.ablation import (
    fixed_period_ablation,
    interference_model_ablation,
    render_ablation,
)
from repro.units import HOUR


def test_fixed_period_ablation_runs_each_period(tiny_platform, tiny_classes):
    cells = fixed_period_ablation(
        tiny_platform,
        tiny_classes,
        strategy="ordered-fixed",
        periods_hours=(0.5, 2.0),
        horizon_days=0.5,
        num_runs=1,
        base_seed=0,
    )
    assert len(cells) == 2
    assert "0.5 h" in cells[0].label and "2 h" in cells[1].label
    for cell in cells:
        assert 0.0 <= cell.waste.mean <= 1.0
    text = render_ablation("fixed period ablation", cells)
    assert "fixed period ablation" in text
    assert "ordered-fixed" in text


def test_fixed_period_ablation_validation(tiny_platform, tiny_classes):
    with pytest.raises(ConfigurationError):
        fixed_period_ablation(tiny_platform, tiny_classes, periods_hours=())
    with pytest.raises(ConfigurationError):
        fixed_period_ablation(tiny_platform, tiny_classes, strategy="least-waste")
    # A substring match is not enough: the spec must use the fixed policy...
    with pytest.raises(ConfigurationError):
        fixed_period_ablation(tiny_platform, tiny_classes, strategy="ordered[policy=daly]")
    # ...and leave the period to the sweep instead of pinning its own.
    with pytest.raises(ConfigurationError, match="sweeps the period"):
        fixed_period_ablation(
            tiny_platform, tiny_classes, strategy="ordered[policy=fixed,period_s=1800]"
        )
    with pytest.raises(ConfigurationError, match="duplicate"):
        fixed_period_ablation(tiny_platform, tiny_classes, periods_hours=(1.0, 1.0))


def test_interference_ablation_is_monotone_in_alpha(tiny_platform, tiny_classes):
    cells = interference_model_ablation(
        tiny_platform,
        tiny_classes,
        strategy="oblivious-fixed",
        alphas=(0.0, 1.0),
        horizon_days=0.5,
        num_runs=1,
        base_seed=1,
    )
    assert len(cells) == 2
    assert "linear" in cells[0].label
    assert "alpha=1" in cells[1].label
    # More adversarial interference can only increase (or keep) the waste of
    # an overlapping-I/O strategy.
    assert cells[1].waste.mean >= cells[0].waste.mean - 1e-9


def test_interference_ablation_validation(tiny_platform, tiny_classes):
    with pytest.raises(ConfigurationError):
        interference_model_ablation(tiny_platform, tiny_classes, alphas=())


def test_ablation_cells_under_custom_fixed_period(tiny_platform, tiny_classes):
    # A very long fixed period means fewer checkpoints than a short one, so
    # on a failure-light toy platform the checkpoint overhead shrinks.
    cells = fixed_period_ablation(
        tiny_platform,
        tiny_classes,
        strategy="ordered-fixed",
        periods_hours=(0.25, 4.0),
        horizon_days=0.5,
        num_runs=1,
        base_seed=2,
    )
    frequent, rare = cells
    assert rare.waste.mean <= frequent.waste.mean + 0.02
