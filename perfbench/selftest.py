"""Self-tests of the benchmark's own arithmetic and checks.

Run from the root of a source checkout::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from workloads import HEADER, WORKLOADS, failed_cells  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_of_nested_spans() -> None:
    tracer = Tracer(targets=())
    tracer.enter("a", 0.0)
    tracer.enter("b", 1.0)
    tracer.enter("c", 2.0)
    assert tracer.exit(4.0) == 2.0
    assert tracer.exit(5.0) == 4.0
    tracer.enter("b", 6.0)
    tracer.exit(7.0)
    tracer.enter("a", 8.0)  # same layer nested in itself
    tracer.exit(9.0)
    assert tracer.exit(10.0) == 10.0
    assert dict(tracer.self_s) == {"a": 10.0 - 6.0 + 1.0, "b": 2.0 + 1.0, "c": 2.0}
    assert dict(tracer.incl_s) == {"a": 10.0, "b": 5.0, "c": 2.0}
    assert sum(tracer.self_s.values()) == 10.0


def _tiny_simulation() -> float:
    from repro.scenarios.presets import make_campaign
    from repro.simulation.simulator import Simulation

    scenario = make_campaign("smoke", horizon_days=0.1, strategies=("least-waste",)).scenarios()[0]
    return Simulation(scenario.config("least-waste").with_seed(3)).run().waste_ratio


def test_tracing_restores_every_original_binding() -> None:
    import repro.cli  # noqa: F401  (loads every module the CLI binds)
    import repro.exec.digest
    import repro.exec.runner

    original_digest = repro.exec.digest.config_digest
    tracer = Tracer()
    tracer.install()
    bindings = tracer.wrapped_bindings()
    assert tracer.missing == []
    assert repro.exec.runner.config_digest is not original_digest  # by-name copy wrapped too
    # A module importing a wrapped function by name after install.
    late = types.ModuleType("repro._late_importer")
    late.config_digest = repro.exec.digest.config_digest
    sys.modules[late.__name__] = late
    try:
        traced_value = _tiny_simulation()
        tracer.uninstall()
    finally:
        del sys.modules[late.__name__]
    assert bindings
    assert all(vars(owner)[name] is original for owner, name, original in bindings)
    assert repro.exec.runner.config_digest is original_digest
    assert late.config_digest is original_digest
    assert tracer.counts["simulation.run"] == 1 and tracer.values["simulation.events"] > 0
    assert _tiny_simulation() == traced_value


def test_missing_targets_are_reported_not_fatal() -> None:
    tracer = Tracer(
        targets=(
            Target("repro.no_such_module", "f", "x", "x"),
            Target("repro.platform.nodes", "NoSuchPool.allocate", "x", "x"),
            Target("repro.platform.nodes", "NodePool.no_such_method", "x", "x"),
        )
    )
    tracer.install()
    tracer.uninstall()
    assert len(tracer.missing) == 3 and not tracer.present
    report = {**tracer.snapshot(), "self_s": {}, "incl_s": {}}
    metrics = run.layer_metrics([report], overhead=0.1)
    assert metrics == {"trace.overhead_frac": 0.1}


def test_metric_names_units_and_benchmark_json_agree() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in run.PER_LAYER.items()
    }
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert not NAME.fullmatch("bad name") and not NAME.fullmatch("bad/name")


def _valid_csv(workload) -> str:
    lines = [",".join(HEADER)]
    for scenario, strategy in workload.cells():
        stats = [repr(float(workload.num_runs))] + ["0.25"] * 9
        lines.append(",".join([workload.name, f'"{scenario}"', strategy, strategy, "0", *stats]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_csv_raises_failed_frac(name: str, tmp_path: Path) -> None:
    workload = WORKLOADS[name]
    good = _valid_csv(workload)
    assert failed_cells(good, workload) == set()
    assert failed_cells(good, workload, reference=good) == set()

    bench = run.Bench(tmp_path, tmp_path, workload, seed=run.DEFAULT_SEED + 1)

    def check(text: str | None, code: int = 0) -> float:
        before = bench.failed
        bench.check(run.CliRun(1.0, 0.5, 80.0, code, text, None, 10.0, 0.0))
        return (bench.failed - before) / workload.seeds

    assert check(good) == 0.0  # becomes the run's reference
    out_of_range = good.replace(",0.25\n", ",1.5\n", 1)
    assert check(out_of_range) == 1 / len(workload.cells())
    wrong_n = good.replace(f",{float(workload.num_runs)!r},", ",2.0,", 1)
    assert check(wrong_n) == 1 / len(workload.cells())
    missing_row = good.rsplit("\n", 2)[0] + "\n"
    assert check(missing_row) == 1 / len(workload.cells())
    reordered = "\n".join([good.split("\n")[0], *reversed(good.split("\n")[1:-1])]) + "\n"
    assert check(reordered) == 1.0
    assert check("garbage") == 1.0
    assert check(None, code=2) == 1.0
    assert bench.attempted == 7 * workload.seeds

    # At the recorded seed a valid CSV must also match the recorded digest.
    recorded = run.Bench(tmp_path, tmp_path, workload, seed=bench.recorded["seed"])
    recorded.check(run.CliRun(1.0, 0.5, 80.0, 0, good, None, 10.0, 0.0))
    assert recorded.failed == workload.seeds and recorded.errors
