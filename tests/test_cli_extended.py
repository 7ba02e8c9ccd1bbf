"""Extended CLI commands: export, chart, ablation and trace."""

from __future__ import annotations

import csv
import io

from repro.cli import main


def test_figure1_with_chart_and_csv_export(tmp_path, capsys):
    csv_path = tmp_path / "fig1.csv"
    assert (
        main(
            [
                "figure1",
                "--bandwidths-gbs",
                "80",
                "--num-runs",
                "1",
                "--horizon-days",
                "1.0",
                "--chart",
                "--csv",
                str(csv_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "legend:" in out  # the ASCII chart
    assert csv_path.exists()
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    assert any(row["strategy"] == "theoretical-model" for row in rows)


def test_figure3_csv_export(tmp_path, capsys):
    csv_path = tmp_path / "fig3.csv"
    assert (
        main(
            [
                "figure3",
                "--mtbf-years",
                "15",
                "--num-runs",
                "1",
                "--horizon-days",
                "1.0",
                "--csv",
                str(csv_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert csv_path.exists()


def test_ablation_fixed_period_command(capsys):
    assert (
        main(
            [
                "ablation",
                "--study",
                "fixed-period",
                "--periods-hours",
                "1",
                "2",
                "--num-runs",
                "1",
                "--horizon-days",
                "1.0",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Fixed-period ablation" in out
    assert "P = 1 h" in out and "P = 2 h" in out


def test_ablation_interference_command(capsys):
    assert (
        main(
            [
                "ablation",
                "--study",
                "interference",
                "--alphas",
                "0",
                "1",
                "--num-runs",
                "1",
                "--horizon-days",
                "1.0",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Interference-model ablation" in out
    assert "linear" in out


def test_trace_command(capsys):
    assert (
        main(
            [
                "trace",
                "--strategy",
                "ordered-fixed",
                "--horizon-days",
                "1.0",
                "--seed",
                "1",
                "--max-events",
                "10",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "timeline" in out
    assert "job-start" in out


def test_trace_output_does_not_depend_on_earlier_runs(capsys):
    """Job ids are numbered per simulation, so a repeated run in the same
    process prints the same job names and ids (``EAP#1``, ``job 1``)."""
    argv = ["trace", "--horizon-days", "0.2", "--max-events", "5"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert "EAP#1 " in outputs[0] and "job 1:" in outputs[0]
    assert outputs[1] == outputs[0]
