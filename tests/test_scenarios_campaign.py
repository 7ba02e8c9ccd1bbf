"""Campaign matrix expansion (repro.scenarios.campaign) and presets."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.platform.failures import FailureModel
from repro.scenarios.campaign import Axis, AxisPoint, Campaign
from repro.scenarios.presets import (
    CAMPAIGNS,
    campaign_names,
    make_campaign,
    mini_apex_workload,
    mini_cielo_platform,
)
from repro.scenarios.spec import Scenario
from repro.units import GB


@pytest.fixture
def base(tiny_platform, tiny_classes) -> Scenario:
    return Scenario(
        name="base",
        platform=tiny_platform,
        workload=tiny_classes,
        strategies=("least-waste",),
        num_runs=1,
        horizon_days=0.5,
    )


# ------------------------------------------------------------------- axes
def test_axis_from_values_builds_labelled_points():
    axis = Axis.from_values("io", "bandwidth_gbs", [40.0, 160.0])
    assert axis.name == "io"
    assert [p.label for p in axis.points] == ["40", "160"]
    assert axis.points[0].overrides == {"bandwidth_gbs": 40.0}


def test_axis_validation():
    with pytest.raises(ConfigurationError):
        Axis(name="", points=(AxisPoint("a", {}),))
    with pytest.raises(ConfigurationError):
        Axis(name="x", points=())
    with pytest.raises(ConfigurationError):
        Axis(name="x", points=(AxisPoint("a", {}), AxisPoint("a", {})))
    with pytest.raises(ConfigurationError):
        AxisPoint("", {})
    with pytest.raises(ConfigurationError):
        Axis.from_values("x", "num_runs", [1, 2], labels=["only-one"])


# -------------------------------------------------------------- expansion
def test_campaign_without_axes_is_the_base_scenario(base):
    campaign = Campaign(name="single", base=base)
    assert campaign.size() == 1
    assert campaign.scenarios() == [base]


def test_campaign_expands_row_major_with_composed_names(base):
    campaign = Campaign(
        name="matrix",
        base=base,
        axes=(
            Axis.from_values("io", "bandwidth_gbs", [1.0, 4.0]),
            Axis.from_values("runs", "num_runs", [1, 2]),
        ),
    )
    scenarios = campaign.scenarios()
    assert campaign.size() == 4 and campaign.shape == (2, 2)
    assert [s.name for s in scenarios] == [
        "io=1,runs=1",
        "io=1,runs=2",
        "io=4,runs=1",
        "io=4,runs=2",
    ]
    assert scenarios[0].platform.io_bandwidth_bytes_per_s == 1.0 * GB
    assert scenarios[3].platform.io_bandwidth_bytes_per_s == 4.0 * GB
    assert scenarios[3].num_runs == 2
    # Expansion is deterministic: a second call produces equal scenarios.
    assert campaign.scenarios() == scenarios


def test_campaign_merged_overrides_feed_workload_factories(base):
    """A workload factory sees the platform with every platform override of
    the combination applied, whatever the axis order."""
    seen: list[float] = []

    def rebuild(platform):
        seen.append(platform.io_bandwidth_bytes_per_s)
        return base.workload

    campaign = Campaign(
        name="ordering",
        base=base,
        axes=(
            Axis(name="wl", points=(AxisPoint("mix", {"workload": rebuild}),)),
            Axis.from_values("io", "bandwidth_gbs", [1.0, 4.0]),
        ),
    )
    campaign.scenarios()
    assert seen == [1.0 * GB, 4.0 * GB]


def test_axis_point_name_override_renames_the_cell(base):
    campaign = Campaign(
        name="renamed",
        base=base,
        axes=(
            Axis(
                name="io",
                points=(
                    AxisPoint("slow", {"bandwidth_gbs": 1.0, "name": "weak-io"}),
                    AxisPoint("fast", {"bandwidth_gbs": 4.0}),
                ),
            ),
        ),
    )
    assert [s.name for s in campaign.scenarios()] == ["weak-io", "io=fast"]


def test_campaign_validation(base):
    with pytest.raises(ConfigurationError):
        Campaign(name="", base=base)
    axis = Axis.from_values("io", "bandwidth_gbs", [1.0])
    with pytest.raises(ConfigurationError):
        Campaign(name="dup", base=base, axes=(axis, axis))


def test_campaign_describe_lists_axes(base):
    campaign = Campaign(
        name="matrix",
        base=base,
        axes=(Axis.from_values("io", "bandwidth_gbs", [1.0, 4.0]),),
    )
    text = campaign.describe()
    assert "matrix" in text and "axis io" in text and "2 scenario(s)" in text


# ---------------------------------------------------------------- presets
def test_preset_registry_is_consistent():
    assert set(campaign_names()) == set(CAMPAIGNS)
    for name in campaign_names():
        campaign = make_campaign(name)
        assert campaign.name == name
        assert campaign.size() >= 1
        assert campaign.scenarios()  # expands without error


def test_make_campaign_rejects_unknown_name():
    with pytest.raises(ConfigurationError) as excinfo:
        make_campaign("nope")
    assert "smoke" in str(excinfo.value)


def test_make_campaign_forwards_overrides():
    campaign = make_campaign("smoke", num_runs=5, strategies=("least-waste",))
    assert campaign.base.num_runs == 5
    assert campaign.base.strategies == ("least-waste",)


def test_prospective_presets_use_the_prospective_platform():
    for name in ("prospective-bandwidth", "prospective-resilience"):
        campaign = make_campaign(name)
        assert campaign.base.platform.name == "Prospective"
        assert campaign.base.platform.num_nodes == 50_000


def test_prospective_resilience_crosses_failure_models():
    campaign = make_campaign("prospective-resilience")
    models = {s.failure_model for s in campaign.scenarios()}
    assert FailureModel() in models
    assert FailureModel(kind="weibull", shape=0.7) in models


def test_mini_cielo_mirrors_apex_structure():
    platform = mini_cielo_platform()
    classes = mini_apex_workload(platform)
    assert platform.num_nodes == 64
    assert [c.name for c in classes] == ["EAP", "LAP", "Silverton", "VPIC"]
    assert sum(c.workload_share for c in classes) == pytest.approx(1.0)
    assert all(c.nodes <= platform.num_nodes for c in classes)


# ------------------------------------------------------------ user files
def test_campaign_from_mapping_builds_matrix_from_preset_base():
    campaign = Campaign.from_mapping(
        {
            "name": "mapped",
            "base": "smoke",
            "overrides": {"num_runs": 1, "strategies": ["least-waste"]},
            "axes": [
                {"name": "io", "key": "bandwidth_gbs", "values": [1.0, 4.0]},
                {
                    "name": "mtbf",
                    "points": [
                        {"label": "short", "overrides": {"node_mtbf_years": 0.05}},
                        {"label": "long", "overrides": {"node_mtbf_years": 0.2}},
                    ],
                },
            ],
        }
    )
    assert campaign.name == "mapped"
    assert campaign.base.num_runs == 1 and campaign.base.strategies == ("least-waste",)
    assert campaign.shape == (2, 2)
    names = [scenario.name for scenario in campaign.scenarios()]
    assert names == ["io=1,mtbf=short", "io=1,mtbf=long", "io=4,mtbf=short", "io=4,mtbf=long"]


def test_campaign_from_mapping_validates_schema():
    with pytest.raises(ConfigurationError, match="name"):
        Campaign.from_mapping({"base": "smoke"})
    with pytest.raises(ConfigurationError, match="base"):
        Campaign.from_mapping({"name": "x"})
    with pytest.raises(ConfigurationError, match="unknown campaign"):
        Campaign.from_mapping({"name": "x", "base": "no-such-preset"})
    with pytest.raises(ConfigurationError, match="typo_key"):
        Campaign.from_mapping({"name": "x", "base": "smoke", "typo_key": 1})
    with pytest.raises(ConfigurationError, match="values"):
        Campaign.from_mapping(
            {"name": "x", "base": "smoke", "axes": [{"name": "io", "key": "bandwidth_gbs"}]}
        )
    with pytest.raises(ConfigurationError, match="label"):
        Campaign.from_mapping(
            {"name": "x", "base": "smoke", "axes": [{"name": "io", "points": [{}]}]}
        )
    with pytest.raises(ConfigurationError, match="'key'"):
        Campaign.from_mapping({"name": "x", "base": "smoke", "axes": [{"name": "io"}]})
    with pytest.raises(ConfigurationError, match="interference"):
        Campaign.from_mapping(
            {"name": "x", "base": "smoke", "overrides": {"interference": "degrading"}}
        )


def test_campaign_from_file_json_round_trip(tmp_path):
    import json

    path = tmp_path / "matrix.json"
    path.write_text(
        json.dumps(
            {
                "name": "file-campaign",
                "base": "smoke",
                "overrides": {"num_runs": 2},
                "axes": [{"name": "io", "key": "bandwidth_gbs", "values": [2.0]}],
            }
        )
    )
    campaign = Campaign.from_file(path)
    assert campaign.name == "file-campaign"
    assert campaign.base.num_runs == 2
    assert campaign.size() == 1
    with pytest.raises(ConfigurationError, match="cannot read"):
        Campaign.from_file(tmp_path / "missing.json")
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="cannot parse"):
        Campaign.from_file(bad)


def test_campaign_from_file_toml(tmp_path):
    pytest.importorskip("tomllib")
    path = tmp_path / "matrix.toml"
    path.write_text(
        'name = "toml-campaign"\n'
        'base = "smoke"\n'
        "[overrides]\n"
        "num_runs = 1\n"
        "bandwidth_gbs = 8.0\n"
        "[[axes]]\n"
        'name = "mtbf"\n'
        'key = "node_mtbf_years"\n'
        "values = [0.05, 0.2]\n"
        'labels = ["short", "long"]\n'
    )
    campaign = Campaign.from_file(path)
    assert campaign.name == "toml-campaign"
    assert campaign.base.platform.io_bandwidth_bytes_per_s == pytest.approx(8.0 * GB)
    assert [p.label for p in campaign.axes[0].points] == ["short", "long"]


# --------------------------------------------------- parameterized strategies
def test_period_sweep_preset_sweeps_parameterized_specs():
    campaign = make_campaign("period-sweep", periods_hours=(0.5, 2.0))
    scenarios = campaign.scenarios()
    assert [s.name for s in scenarios] == [
        "period=reference", "period=0.5h", "period=2h",
    ]
    assert scenarios[0].strategies == ("ordered-daly",)
    assert scenarios[1].strategies == ("ordered[policy=fixed,period_s=1800]",)
    assert scenarios[2].strategies == ("ordered[policy=fixed,period_s=7200]",)
    # Every cell maps onto a distinct cache key via its canonical spec.
    strategies = {s.strategies[0] for s in scenarios}
    assert len(strategies) == 3


def test_campaign_axes_may_sweep_strategy_params():
    campaign = Campaign(
        name="bias-sweep",
        base=make_campaign("smoke").base.apply(num_runs=1, strategies=("least-waste",)),
        axes=(
            Axis(
                name="bias",
                points=tuple(
                    AxisPoint(label, {"strategies": (spec,)})
                    for label, spec in [
                        ("1x", "least-waste"),
                        ("2x", "least-waste[mtbf_bias=2]"),
                    ]
                ),
            ),
        ),
    )
    scenarios = campaign.scenarios()
    assert scenarios[0].strategies == ("least-waste",)
    assert scenarios[1].strategies == ("least-waste[mtbf_bias=2]",)
    # Specs survive config construction and digesting.
    from repro.exec.digest import config_digest

    digests = {config_digest(s.config(s.strategies[0])) for s in scenarios}
    assert len(digests) == 2


def test_campaign_file_accepts_parameterized_strategies(tmp_path):
    import json

    path = tmp_path / "period.json"
    path.write_text(
        json.dumps(
            {
                "name": "file-period",
                "base": "smoke",
                "overrides": {
                    "num_runs": 1,
                    "strategies": ["Ordered[Policy=Fixed, Period_s=1800]".replace(" ", "")],
                },
            }
        )
    )
    campaign = Campaign.from_file(path)
    assert campaign.base.strategies == ("ordered[policy=fixed,period_s=1800]",)
