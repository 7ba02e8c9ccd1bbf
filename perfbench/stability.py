"""Run-to-run spread of the end-to-end metrics, as the acceptance check computes it.

Run from the root of a source checkout::

    python3 perfbench/stability.py --seeds 10 [--workloads mini-cold,mini-warm] [--save set1.json]
    python3 perfbench/stability.py --seeds 10 --save set2.json --compare set1.json

Runs ``run.py`` once per (seed, workload) for ``run_seconds`` of
``BENCHMARK.json``, seeds 100, 101, ..., one process at a time,
interleaving the workloads (seed-major, workload order rotated each seed) so
a change in machine speed lands on every workload alike.  For each workload
and metric it prints the median, the quartiles and their distance as a share
of the median next to the metric's bound, plus the machine speed (which the
timings are scaled by) and load average of every run, so a slower machine
shows up as such.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIRST_SEED = 100
SPEED = re.compile(r"load1 median ([0-9.]+)\n# machine speed ([0-9.]+) x reference")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    found = SPEED.search(proc.stdout)
    result["load1"], result["speed"] = map(float, found.groups()) if found else (0.0, 0.0)
    result["exit"] = proc.returncode
    return result


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--save", help="write every run's result to this JSON file")
    parser.add_argument("--compare", help="a --save file of an earlier set to compare medians with")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for index in range(args.seeds):
        seed = FIRST_SEED + index
        shift = index % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            result = run_once(workload, seed, spec["run_seconds"])
            results[workload].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"seed {seed} {workload}: exit {result['exit']} correct {result['correct']} "
                  f"{values} speed {result['speed']:.3f} load1 {result['load1']:.2f}",
                  flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(results), encoding="utf-8")
    earlier = json.loads(Path(args.compare).read_text(encoding="utf-8")) if args.compare else {}

    ok = True
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs, {sum(r['correct'] for r in runs)} correct, "
              f"machine speed median {statistics.median(r['speed'] for r in runs):.3f}")
        ok &= all(r["correct"] and r["exit"] == 0 for r in runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                print(f"  {name}: too few values")
                ok = False
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            line = (f"  {name:20s} median {median:.5g} q1 {q1:.5g} q3 {q3:.5g} "
                    f"spread {spread:.3f} bound {bound} ({spread / bound:.2f} of bound)")
            if workload in earlier:
                before = [r["metrics"][name]["value"] for r in earlier[workload] if name in r["metrics"]]
                shift = statistics.median(values) / statistics.median(before) - 1.0
                line += f" vs earlier set {shift:+.3f}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
