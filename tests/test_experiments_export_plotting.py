"""Result export (CSV/JSON) and ASCII plotting."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.errors import AnalysisError
from repro.experiments.export import (
    figure3_to_csv,
    figure3_to_rows,
    sweep_to_csv,
    sweep_to_json,
    sweep_to_rows,
    write_text,
)
from repro.experiments.figure3 import Figure3Result
from repro.experiments.plotting import ascii_chart, sweep_chart
from repro.experiments.report import SweepResult
from repro.stats.summary import summarize


@pytest.fixture
def sweep_result() -> SweepResult:
    result = SweepResult(
        parameter_name="bandwidth (GB/s)",
        parameter_values=[40.0, 160.0],
        strategies=["oblivious-fixed", "least-waste"],
    )
    result.waste["oblivious-fixed"] = [summarize([0.8, 0.82]), summarize([0.3, 0.28])]
    result.waste["least-waste"] = [summarize([0.25, 0.26]), summarize([0.14, 0.15])]
    result.theory = [0.24, 0.13]
    return result


@pytest.fixture
def figure3_result() -> Figure3Result:
    return Figure3Result(
        node_mtbf_years=[5.0, 25.0],
        strategies=["oblivious-fixed", "least-waste"],
        min_bandwidth_tbs={"oblivious-fixed": [20.0, 8.0], "least-waste": [2.0, 1.0]},
        theory_tbs=[1.5, 0.8],
        target_efficiency=0.8,
    )


# --------------------------------------------------------------------- export
def test_sweep_rows_cover_all_cells_and_theory(sweep_result):
    rows = sweep_to_rows(sweep_result)
    # 2 values x (2 strategies + theory) = 6 rows.
    assert len(rows) == 6
    strategies = {row["strategy"] for row in rows}
    assert strategies == {"oblivious-fixed", "least-waste", "theoretical-model"}
    lw_40 = next(r for r in rows if r["strategy"] == "least-waste" and r["value"] == 40.0)
    assert lw_40["mean"] == pytest.approx(0.255)


def test_sweep_csv_parses_back(sweep_result):
    text = sweep_to_csv(sweep_result)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 6
    assert rows[0]["parameter"] == "bandwidth (GB/s)"


def test_sweep_json_round_trip(sweep_result):
    payload = json.loads(sweep_to_json(sweep_result))
    assert payload["parameter"] == "bandwidth (GB/s)"
    assert payload["values"] == [40.0, 160.0]
    assert len(payload["rows"]) == 6


def test_figure3_rows_and_csv(figure3_result):
    rows = figure3_to_rows(figure3_result)
    assert len(rows) == 6
    assert any(row["strategy"] == "theoretical-model" for row in rows)
    text = figure3_to_csv(figure3_result)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert parsed[0]["node_mtbf_years"] == "5.0"


def test_write_text_creates_parent_dirs(tmp_path):
    target = write_text(tmp_path / "nested" / "out.csv", "a,b\n1,2\n")
    assert target.read_text() == "a,b\n1,2\n"


# ------------------------------------------------------------------- plotting
def test_ascii_chart_contains_markers_and_axis_labels():
    chart = ascii_chart(
        {"up": [0.0, 1.0, 2.0], "down": [2.0, 1.0, 0.0]},
        x_values=[1.0, 2.0, 3.0],
        width=40,
        height=10,
        y_label="waste",
        x_label="bandwidth",
    )
    assert "waste" in chart
    assert "bandwidth" in chart
    assert "legend:" in chart
    assert "o up" in chart and "x down" in chart
    # The plot body is bounded by the requested width.
    body_lines = [line for line in chart.splitlines() if line.strip().startswith("|")]
    assert body_lines
    assert all(len(line) <= 40 + 14 for line in body_lines)


def test_ascii_chart_handles_flat_series():
    chart = ascii_chart({"flat": [1.0, 1.0]}, x_values=[0.0, 1.0], width=20, height=5)
    assert "flat" in chart


def test_ascii_chart_validation():
    with pytest.raises(AnalysisError):
        ascii_chart({}, x_values=[1.0])
    with pytest.raises(AnalysisError):
        ascii_chart({"a": [1.0, 2.0]}, x_values=[1.0])
    with pytest.raises(AnalysisError):
        ascii_chart({"a": []}, x_values=[])


def test_sweep_chart_includes_every_strategy(sweep_result):
    chart = sweep_chart(sweep_result)
    assert "least-waste" in chart
    assert "theoretical-model" in chart
    assert "waste ratio" in chart
