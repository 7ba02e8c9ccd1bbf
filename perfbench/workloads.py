"""The benchmark's campaign workloads and the output check of their CSVs.

Each workload is a campaign matrix written as a JSON campaign file (the
schema of ``repro.scenarios.campaign.Campaign.from_mapping``).  The
workload seed becomes the campaign's ``base_seed``, so the same seed gives
the same inputs and the CLI sees nothing but the generated file.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

#: One strategy per scheduler family, the four lines of the paper's figures.
FAMILY_STRATEGIES = ("oblivious-daly", "ordered-daly", "orderednb-daly", "least-waste")

#: Columns of ``coopckpt campaign --csv``.
STATS = ("n", "mean", "std", "min", "d1", "q1", "median", "q3", "d9", "max")
HEADER = ("campaign", "scenario", "strategy", "spec", "best", *STATS)

# The smoke preset's matrix: mini-Cielo I/O bandwidth x node MTBF.
_MINI_AXES = (
    {"name": "io", "key": "bandwidth_gbs", "values": [1.0, 4.0], "labels": ["1", "4"]},
    {
        "name": "mtbf",
        "points": [
            {"label": "short", "overrides": {"node_mtbf_years": 16.0 / 365.0}},
            {"label": "long", "overrides": {"node_mtbf_years": 64.0 / 365.0}},
        ],
    },
)


@dataclass(frozen=True)
class Workload:
    """One campaign workload.

    ``warm`` workloads run against a result cache filled (untimed) by one
    CLI run of the same campaign; cold ones get an empty cache per run.
    """

    name: str
    base: str
    overrides: dict
    axes: tuple
    warm: bool = False

    @property
    def num_runs(self) -> int:
        return int(self.overrides["num_runs"])

    def campaign(self, seed: int) -> dict:
        """The campaign file contents for workload seed ``seed``."""
        return {
            "name": self.name,
            "base": self.base,
            "overrides": {**self.overrides, "base_seed": seed, "strategies": list(FAMILY_STRATEGIES)},
            "axes": list(self.axes),
        }

    def cells(self) -> list[tuple[str, str]]:
        """Every ``(scenario, strategy)`` cell the CSV must hold, in row order."""
        scenarios = [""]
        for axis in self.axes:
            labels = axis["labels"] if "labels" in axis else [p["label"] for p in axis["points"]]
            scenarios = [
                f"{prefix},{axis['name']}={label}" if prefix else f"{axis['name']}={label}"
                for prefix in scenarios
                for label in labels
            ]
        return [(scenario, strategy) for scenario in scenarios for strategy in FAMILY_STRATEGIES]

    @property
    def seeds(self) -> int:
        """Seed values one CLI run delivers (simulated or read from the store)."""
        return len(self.cells()) * self.num_runs


#: The reason for each workload is its ``why`` in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-cielo",
            base="cielo-reference",
            overrides={"num_runs": 1, "horizon_days": 60.0, "node_mtbf_years": 2.0},
            axes=({"name": "io", "key": "bandwidth_gbs", "values": [40.0, 160.0], "labels": ["40", "160"]},),
        ),
        Workload(
            name="mini-cold",
            base="smoke",
            overrides={"num_runs": 64},
            axes=_MINI_AXES,
        ),
        Workload(
            name="mini-warm",
            base="smoke",
            overrides={
                "num_runs": 625,
                "horizon_days": 0.05,
                "warmup_days": 0.05 / 8.0,
                "cooldown_days": 0.05 / 8.0,
            },
            axes=_MINI_AXES,
            warm=True,
        ),
    )
}


def failed_cells(
    text: str,
    workload: Workload,
    reference: str | None = None,
) -> set[tuple[str, str]]:
    """Cells of the campaign CSV ``text`` that fail the output check.

    A cell fails when its row is missing or malformed, names another
    campaign, has ``n`` other than the seed count, has a statistic outside
    [0, 1], or differs from the same row of ``reference``.  When the text
    differs from ``reference`` but no row does (order, extra rows), every
    cell fails: runs of one seed must write byte-identical CSVs.
    """
    cells = workload.cells()
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error:
        return set(cells)
    if not rows or tuple(rows[0]) != HEADER:
        return set(cells)
    by_cell = {(row[1], row[2]): row for row in rows[1:] if len(row) == len(HEADER)}
    ref_rows = None
    if reference is not None:
        ref_rows = {(row[1], row[2]): row for row in list(csv.reader(io.StringIO(reference)))[1:]}
    failed = {
        cell
        for cell in cells
        if cell not in by_cell
        or not _row_ok(by_cell[cell], workload)
        or (ref_rows is not None and ref_rows.get(cell) != by_cell[cell])
    }
    if reference is not None and text != reference and not failed:
        failed = set(cells)
    return failed


def _row_ok(row: list[str], workload: Workload) -> bool:
    if row[0] != workload.name:
        return False
    try:
        values = [float(value) for value in row[len(HEADER) - len(STATS):]]
    except ValueError:
        return False
    n, stats = values[0], values[1:]
    return n == workload.num_runs and all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in stats)
