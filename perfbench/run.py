"""Campaign benchmark: time the ``campaign`` CLI end to end, or trace it layer by layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload mini-cold --seed 1 --seconds 20 --trace 0

Each measured CLI run is one process, ``repro.cli.main`` started through
``launch.py`` on the default serial backend, and runs strictly one at a
time.  ``--trace 0`` repeats the workload's campaign (a fresh empty cache per
run for cold workloads, the pre-filled cache for the warm one) for about
``--seconds`` seconds, at least three times, and reports medians of the
end-to-end metrics.  ``--trace 1`` alternates two untraced and two traced
runs of the same seed: the traced runs give the per-layer metrics, must
repeat every deterministic count exactly, and set the tracing overhead.

Every run's CSV is checked (see :func:`workloads.failed_cells`): all runs of
one seed must write byte-identical CSVs, the warm workload must match the
CSV of its fill run, and the default seed must match the digest recorded in
``reference.json``.  Failed seed values are counted, never dropped.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload, failed_cells

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
MIN_RUNS = 3
SETUP_SAMPLES = 6
#: A CLI run is killed (and its seeds counted as failed) after this long.
RUN_TIMEOUT_S = 150.0
#: One machine-speed sample: this many turns of a fixed pure-Python loop.
SAMPLE_LOOP = 20_000
SAMPLE_EVERY_S = 0.05
#: Mean sample time at the reference speed (a 2-core Xeon VM at its usual
#: speed, one CPU busy with the CLI); the end-to-end timings are scaled to it.
REFERENCE_SAMPLE_MS = 1.25

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("steady_seeds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class CliRun:
    """One CLI process: timings, peak memory, exit code, CSV and trace."""

    wall_s: float
    setup_s: float
    peak_rss_mb: float
    code: int
    csv: str | None
    trace: dict | None
    sample_ms: float
    load1: float


class SpeedSampler(threading.Thread):
    """Times a short fixed loop every ``SAMPLE_EVERY_S`` while the CLI runs are measured.

    On a virtual machine whose host lends its CPUs out, every program runs
    slower at once, process CPU time included, by up to a factor of two over
    minutes.  The sampler runs on ``cpu``, the CPU the CLI runs are not
    pinned to, and :meth:`speed` gives how much faster than the reference
    the machine ran: the end-to-end timings are divided by it.
    """

    def __init__(self, cpu: int) -> None:
        super().__init__(daemon=True)
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.done = threading.Event()

    def run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while True:
            start = time.monotonic()
            total = 0
            for i in range(SAMPLE_LOOP):
                total += i * i
            self.samples.append((start, time.monotonic() - start))
            if self.done.wait(SAMPLE_EVERY_S):
                return

    def mean_ms(self, begin: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean sample time (ms) of the samples started in [begin, end), else of all."""
        within = [d for t, d in self.samples if begin <= t < end] or [d for _, d in self.samples]
        return statistics.fmean(within) * 1e3

    def speed(self) -> float:
        """Machine speed over all samples, relative to the reference."""
        return REFERENCE_SAMPLE_MS / self.mean_ms()

    def stop(self) -> None:
        self.done.set()
        self.join()


class Bench:
    """One workload at one seed, run from checkout ``root`` in working directory ``work``."""

    def __init__(self, root: Path, work: Path, workload: Workload, seed: int) -> None:
        self.root, self.work, self.workload, self.seed = root, work, workload, seed
        self.campaign_file = work / "campaign.json"
        self.warm_cache = work / "warm-cache"
        # No simulator-kernel override; bytecode caching on, as in an
        # installed package (the untimed warm-up import writes the caches).
        dropped = ("REPRO_SIM_KERNEL", "PYTHONDONTWRITEBYTECODE")
        self.env = {k: v for k, v in os.environ.items() if k not in dropped}
        self.env["PYTHONPATH"] = str(root / "src")
        self.runs = 0
        self.reference: str | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.recorded = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        # Measured CLI runs go on one CPU, the speed sampler on another.
        self.cpus = os.sched_getaffinity(0)
        self.sampler = SpeedSampler(min(self.cpus))

    # ------------------------------------------------------------ set-up
    def prepare(self) -> None:
        """Untimed: compile and page in the imports, write the campaign, fill the warm cache."""
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"], env=self.env, cwd=self.root, check=True
        )
        self.campaign_file.write_text(json.dumps(self.workload.campaign(self.seed), indent=1))
        if self.workload.warm:
            fill = self.run_cli(self.warm_cache, extra=("--workers", "2"), pin=False)
            if fill.code != 0 or fill.csv is None or failed_cells(fill.csv, self.workload):
                raise RuntimeError(f"warm-cache fill failed (exit {fill.code})")
            self.reference = fill.csv
        os.sync()  # the fill's writes reach the disk before anything is timed

    # ------------------------------------------------------------ one CLI run
    def run_cli(
        self, cache: Path | None, *, trace: bool = False, extra: tuple = (), pin: bool = True
    ) -> CliRun:
        """One CLI process running the campaign on ``cache``; ``None``: a set-up probe.

        With ``pin`` the process runs on one CPU, apart from the speed sampler's.
        """
        self.runs += 1
        tag = f"run{self.runs}"
        stamp, trace_out = self.work / f"{tag}.stamp", self.work / f"{tag}.trace"
        out_csv = self.work / f"{tag}.csv"
        cmd = [sys.executable, str(HERE / "launch.py"), str(stamp), str(trace_out) if trace else "-"]
        if cache is not None:
            cmd += [
                "campaign", "--file", str(self.campaign_file), "--cache-dir", str(cache),
                "--csv", str(out_csv), *extra,
            ]
        load1 = os.getloadavg()[0]
        with open(self.work / f"{tag}.out", "wb") as out, open(self.work / f"{tag}.err", "wb") as err:
            # The child inherits this thread's CPU set.
            os.sched_setaffinity(0, {max(self.cpus)} if pin else self.cpus)
            try:
                start = time.monotonic()
                proc = subprocess.Popen(cmd, env=self.env, cwd=self.root, stdout=out, stderr=err)
            finally:
                os.sched_setaffinity(0, self.cpus)
            watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            end = time.monotonic()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = (self.work / f"{tag}.err").read_text(errors="replace")[-400:]
            self.errors.append(f"{tag}: exit {code}: {tail.strip()}")
        try:
            ready = json.loads(stamp.read_text())["ready"]
        except (OSError, ValueError, KeyError):
            ready = start
        return CliRun(
            wall_s=end - start,
            setup_s=ready - start,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            code=code,
            csv=out_csv.read_text(encoding="utf-8") if out_csv.exists() else None,
            trace=json.loads(trace_out.read_text()) if trace and trace_out.exists() else None,
            sample_ms=self.sampler.mean_ms(start, end) if self.sampler.samples else 0.0,
            load1=load1,
        )

    def measured_run(self, *, trace: bool = False) -> CliRun:
        """Run the campaign once (cold: on a fresh cache) and check its CSV.

        Cold caches are deleted with the work directory after the last run:
        deleting thousands of files between runs would leave the file
        system trimming and committing them while the next run is timed.
        """
        cache = self.warm_cache if self.workload.warm else self.work / f"cold-cache-{self.runs + 1}"
        run = self.run_cli(cache, trace=trace)
        self.check(run)
        print(
            f"# run {self.runs}: wall {run.wall_s:.4f} s, setup {run.setup_s:.4f} s, "
            f"rss {run.peak_rss_mb:.1f} MB, exit {run.code}, traced {int(trace)}, "
            f"speed sample {run.sample_ms:.4f} ms, load1 {run.load1:.2f}",
            flush=True,
        )
        return run

    def check(self, run: CliRun) -> None:
        cells = self.workload.cells()
        if run.code != 0 or run.csv is None:
            bad = set(cells)
        else:
            bad = failed_cells(run.csv, self.workload, self.reference)
            recorded = self.recorded["csv_sha256"].get(self.workload.name)
            if self.seed == self.recorded["seed"] and recorded and sha256(run.csv) != recorded:
                bad = set(cells)
                self.errors.append(f"CSV digest {sha256(run.csv)} != recorded {recorded}")
            if self.reference is None and not bad:
                self.reference = run.csv
        self.attempted += self.workload.seeds
        self.failed += len(bad) * self.workload.num_runs

    # ------------------------------------------------------------ modes
    def measure(self, seconds: float) -> dict[str, float]:
        runs: list[CliRun] = []
        probe_setups: list[float] = []
        probes_per_run = 0
        start = time.monotonic()
        while True:
            runs.append(self.measured_run())
            if len(runs) == 1:
                # Workloads with few, long CLI runs get set-up probes between
                # them, so every set-up median has SETUP_SAMPLES samples.
                expected = max(MIN_RUNS, int(seconds / runs[0].wall_s))
                probes_per_run = max(0, -(-SETUP_SAMPLES // expected) - 1)
            for _ in range(probes_per_run):
                probe = self.run_cli(None)
                if probe.code == 0:
                    probe_setups.append(probe.setup_s)
            elapsed = time.monotonic() - start
            typical = statistics.median(r.wall_s for r in runs)
            if len(runs) >= MIN_RUNS and elapsed + typical / 2 > seconds:
                break
        ok = [r for r in runs if r.code == 0] or runs
        setups = [r.setup_s for r in ok] + probe_setups
        speed = self.sampler.speed()
        wall_s = statistics.median(r.wall_s for r in ok)
        setup_s = statistics.median(setups)
        steady = statistics.median(self.workload.seeds / (r.wall_s - r.setup_s) for r in ok)
        print(
            f"# {len(runs)} CLI runs ({len(ok)} ok), {self.workload.seeds} seed values each, "
            f"{len(setups)} set-up samples; "
            f"speed sample median {statistics.median(r.sample_ms for r in runs):.4f} ms, "
            f"load1 median {statistics.median(r.load1 for r in runs):.2f}"
        )
        print(
            f"# machine speed {speed:.4f} x reference over {len(self.sampler.samples)} samples; "
            f"unscaled: wall_s {wall_s!r} s, setup_s {setup_s!r} s, steady_seeds_per_s {steady!r} 1/s"
        )
        return {
            "wall_s": wall_s * speed,
            "setup_s": setup_s * speed,
            "steady_seeds_per_s": steady / speed,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in ok),
        }

    def traced(self) -> dict[str, float]:
        plain, traced = [], []
        for trace in (False, True, False, True):
            (traced if trace else plain).append(self.measured_run(trace=trace))
        reports = [r.trace for r in traced]
        if any(report is None for report in reports):
            self.errors.append("a traced run wrote no trace")
            return {}
        if not all(report["restored"] for report in reports):
            self.errors.append("tracing left a wrapped attribute behind")
        first, second = (deterministic_counts(report) for report in reports)
        if first != second:
            diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
            self.errors.append(f"traced counts differ between two runs of one seed: {diff}")
        overhead = (
            statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in plain)
            - 1.0
        )
        return layer_metrics(reports, overhead)


def deterministic_counts(report: dict) -> dict[str, float]:
    """Every count of a trace report; two runs of one seed must agree exactly."""
    return {**report["counts"], **report["values"], "simulation.seeds": len(report["seed_ms"])}


#: Per-layer metrics of a traced run: name -> (unit, better, trace names it
#: needs).  A metric is absent when a trace name it needs was not wrapped.
PER_LAYER: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "platform.nodes.calls": ("count", "lower", ("platform.nodes",)),
    "platform.nodes_s": ("s", "lower", ("platform.nodes",)),
    "jobsched.dispatch.calls": ("count", "lower", ("jobsched.dispatch",)),
    "jobsched.dispatch_s": ("s", "lower", ("jobsched.dispatch",)),
    "jobsched.submit.calls": ("count", "lower", ("jobsched.submit",)),
    "jobsched.submit_s": ("s", "lower", ("jobsched.submit",)),
    "jobsched.fit_ratio": ("ratio", "higher", ("platform.nodes.allocate", "platform.nodes.can_allocate")),
    "iosched.submit.calls": ("count", "lower", ("iosched.submit",)),
    "iosched.submit_s": ("s", "lower", ("iosched.submit",)),
    "iosched.select.calls": ("count", "lower", ("iosched.select",)),
    "iosched.select_s": ("s", "lower", ("iosched.select",)),
    "iosched.mean_candidates": ("count", "lower", ("iosched.select",)),
    "platform.io_subsystem.start.calls": ("count", "lower", ("platform.io_subsystem.start",)),
    "platform.io_subsystem_s": ("s", "lower", ("platform.io_subsystem",)),
    "simulation.seeds": ("count", "lower", ("simulation.run",)),
    "simulation.init_s": ("s", "lower", ("simulation.init",)),
    "simulation.run_s": ("s", "lower", ("simulation.run",)),
    "simulation.self_s": ("s", "lower", ("simulation",)),
    "simulation.events": ("count", "lower", ("simulation.run",)),
    "simulation.events_per_s": ("1/s", "higher", ("simulation.run",)),
    "simulation.seed_ms_p50": ("ms", "lower", ("simulation.run",)),
    "simulation.seed_ms_p99": ("ms", "lower", ("simulation.run",)),
    "sim.engine.schedule.calls": ("count", "lower", ("sim.engine.schedule",)),
    "sim.engine.cancel.calls": ("count", "lower", ("sim.engine.cancel",)),
    "sim.engine.live_ratio": ("ratio", "higher", ("sim.engine.schedule", "simulation.run")),
    "workloads.generate_jobs.calls": ("count", "lower", ("workloads.generate_jobs",)),
    "workloads.generate_jobs_s": ("s", "lower", ("workloads.generate_jobs",)),
    "workloads.jobs": ("count", "lower", ("workloads.generate_jobs",)),
    "platform.failures.generate_s": ("s", "lower", ("platform.failures.generate",)),
    "platform.failures.count": ("count", "lower", ("platform.failures.generate",)),
    "store.put.calls": ("count", "lower", ("store.put",)),
    "store.put_s": ("s", "lower", ("store.put",)),
    "store.get.calls": ("count", "lower", ("store.get",)),
    "store.get_s": ("s", "lower", ("store.get",)),
    "store.hit_ratio": ("ratio", "higher", ("store.get",)),
    "exec.digest.calls": ("count", "lower", ("exec.digest",)),
    "exec.digest_s": ("s", "lower", ("exec.digest",)),
    "exec.self_s": ("s", "lower", ("exec",)),
    "scenarios.expand_s": ("s", "lower", ("scenarios.expand",)),
    "scenarios.render_s": ("s", "lower", ("scenarios.render",)),
    "trace.overhead_frac": ("ratio", "lower", ()),
}


def layer_metrics(reports: list[dict], overhead: float) -> dict[str, float]:
    """Per-layer metrics from traced runs (times averaged, counts from the first).

    A metric whose wrapped functions have all gone is left out and named on
    an ``absent`` line.  A ratio over an empty base reads 0 (the ``ratio
    bases`` line gives each base); the p99 line says how many samples lie
    beyond it.
    """
    first = reports[0]
    counts, values, present = first["counts"], first["values"], set(first["present"])

    def self_s(layer: str) -> float:
        return statistics.fmean(r["self_s"].get(layer, 0.0) for r in reports)

    def incl_s(layer: str) -> float:
        return statistics.fmean(r["incl_s"].get(layer, 0.0) for r in reports)

    def count(name: str) -> float:
        return float(counts.get(name, 0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    seed_ms = sorted(first["seed_ms"])
    events = values.get("simulation.events", 0.0)
    node_ops = ("allocate", "release", "release_owner", "owner_of")
    measured = {
        "platform.nodes.calls": sum(count(f"platform.nodes.{op}") for op in node_ops),
        "platform.nodes_s": self_s("platform.nodes"),
        "jobsched.dispatch.calls": count("jobsched.dispatch"),
        "jobsched.dispatch_s": self_s("jobsched.dispatch"),
        "jobsched.submit.calls": count("jobsched.submit"),
        "jobsched.submit_s": self_s("jobsched.submit"),
        "jobsched.fit_ratio": ratio(count("platform.nodes.allocate"), count("platform.nodes.can_allocate")),
        "iosched.submit.calls": count("iosched.submit"),
        "iosched.submit_s": self_s("iosched.submit"),
        "iosched.select.calls": count("iosched.select"),
        "iosched.select_s": self_s("iosched.select"),
        "iosched.mean_candidates": ratio(values.get("iosched.candidates", 0.0), count("iosched.select")),
        "platform.io_subsystem.start.calls": count("platform.io_subsystem.start"),
        "platform.io_subsystem_s": self_s("platform.io_subsystem"),
        "simulation.seeds": float(len(seed_ms)),
        "simulation.init_s": incl_s("simulation.init"),
        "simulation.run_s": incl_s("simulation"),
        "simulation.self_s": self_s("simulation"),
        "simulation.events": events,
        "simulation.events_per_s": ratio(events, incl_s("simulation")),
        "simulation.seed_ms_p50": percentile(seed_ms, 0.50),
        "simulation.seed_ms_p99": percentile(seed_ms, 0.99),
        "sim.engine.schedule.calls": count("sim.engine.schedule"),
        "sim.engine.cancel.calls": count("sim.engine.cancel"),
        "sim.engine.live_ratio": ratio(events, count("sim.engine.schedule")),
        "workloads.generate_jobs.calls": count("workloads.generate_jobs"),
        "workloads.generate_jobs_s": self_s("workloads.generate_jobs"),
        "workloads.jobs": values.get("workloads.jobs", 0.0),
        "platform.failures.generate_s": self_s("platform.failures.generate"),
        "platform.failures.count": values.get("platform.failures.count", 0.0),
        "store.put.calls": count("store.put"),
        "store.put_s": self_s("store.put"),
        "store.get.calls": count("store.get"),
        "store.get_s": self_s("store.get"),
        "store.hit_ratio": ratio(values.get("store.hits", 0.0), count("store.get")),
        "exec.digest.calls": count("exec.digest"),
        "exec.digest_s": self_s("exec.digest"),
        "exec.self_s": self_s("exec"),
        "scenarios.expand_s": self_s("scenarios.expand"),
        "scenarios.render_s": self_s("scenarios.render"),
        "trace.overhead_frac": overhead,
    }
    metrics = {
        name: measured[name]
        for name, (_, _, needs) in PER_LAYER.items()
        if all(need in present for need in needs)
    }
    absent = [name for name in PER_LAYER if name not in metrics]
    if absent:
        print(f"# absent (wrapped function gone): {', '.join(absent)}")
    if first["missing"]:
        print(f"# not found: {', '.join(first['missing'])}")
    beyond = len(seed_ms) - 1 - int(0.99 * (len(seed_ms) - 1)) if seed_ms else 0
    print(
        f"# per-seed times: n={len(seed_ms)}, {beyond} sample(s) beyond p99"
        + ("" if beyond >= 10 else " (fewer than 10: p99 unresolved)")
    )
    print(
        f"# ratio bases: can_allocate={count('platform.nodes.can_allocate'):.0f}, "
        f"select={count('iosched.select'):.0f}, schedule={count('sim.engine.schedule'):.0f}, "
        f"get={count('store.get'):.0f}"
    )
    return metrics


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank-below percentile of sorted samples (0 for none)."""
    return ordered[int(q * (len(ordered) - 1))] if ordered else 0.0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: {root} is not a source checkout (no src/repro/cli.py)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(root, work, workload, args.seed)
        bench.prepare()
        bench.sampler.start()
        try:
            metrics = bench.traced() if args.trace else bench.measure(args.seconds)
        finally:
            bench.sampler.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
        os.sync()  # leave no deletes to commit or trim under the next run

    units = {k: v[0] for k, v in PER_LAYER.items()} if args.trace else dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value!r} {units[name]}")
    print(
        f"{workload.name} failed_frac = {bench.failed / bench.attempted!r} "
        f"({bench.failed} of {bench.attempted} seed values)"
    )
    for error in bench.errors:
        print(f"error: {error}", file=sys.stderr)
    result = {
        "correct": bench.failed == 0 and not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
