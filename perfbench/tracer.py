"""In-memory layer tracing for one CLI process.

The tracer wraps the public entry points of each ``repro.*`` layer (found
by module and attribute name, see :data:`TARGETS`) with spans and counters,
keeps every aggregate in memory, and puts the original attributes back on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` knows it is traced.

A span's *self time* is its duration minus the time its direct child spans
cover; a layer's self time is the sum over its spans, so nested calls into
another layer are charged to that layer only.  Calls that are only counted
(the event engine's ``schedule``/``cancel``) open no span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: ``module`` + ``qualname`` (``Class.method`` or a function).

    ``layer`` names the span the call opens (``None``: count only) and
    ``counter`` the call counter it bumps (``None``: not counted).
    ``hook`` names a :class:`Tracer` method fed ``(duration, args, result)``.
    """

    module: str
    qualname: str
    layer: str | None
    counter: str | None = None
    hook: str | None = None


TARGETS: tuple[Target, ...] = (
    # Node pool: first-fit allocation and failure targeting.
    Target("repro.platform.nodes", "NodePool.allocate", "platform.nodes", "platform.nodes.allocate"),
    Target("repro.platform.nodes", "NodePool.release", "platform.nodes", "platform.nodes.release"),
    Target("repro.platform.nodes", "NodePool.release_owner", "platform.nodes", "platform.nodes.release_owner"),
    Target("repro.platform.nodes", "NodePool.owner_of", "platform.nodes", "platform.nodes.owner_of"),
    Target("repro.platform.nodes", "NodePool.can_allocate", None, "platform.nodes.can_allocate"),
    # Job scheduler.
    Target("repro.jobsched.first_fit", "FirstFitScheduler.dispatch", "jobsched.dispatch", "jobsched.dispatch"),
    Target("repro.jobsched.first_fit", "FirstFitScheduler.submit", "jobsched.submit", "jobsched.submit"),
    # I/O schedulers and the Least-Waste scoring they call.
    Target("repro.iosched.base", "TokenScheduler.submit", "iosched.submit", "iosched.submit"),
    Target("repro.iosched.oblivious", "ObliviousScheduler.submit", "iosched.submit", "iosched.submit"),
    Target("repro.core.least_waste", "select_candidate", "iosched.select", "iosched.select", "on_select"),
    # Shared file system: fair-share progress and completion rescheduling.
    Target("repro.platform.io_subsystem", "IOSubsystem.start", "platform.io_subsystem", "platform.io_subsystem.start"),
    Target("repro.platform.io_subsystem", "IOSubsystem.abort", "platform.io_subsystem"),
    Target("repro.platform.io_subsystem", "IOSubsystem._advance_progress", "platform.io_subsystem"),
    Target("repro.platform.io_subsystem", "IOSubsystem._reschedule_completions", "platform.io_subsystem"),
    # Simulation: construction (initial conditions) and the run loop; the
    # job-start handler is a span of its own so first-fit self time
    # excludes it.
    Target("repro.simulation.simulator", "Simulation.__init__", "simulation.init", "simulation.init", "on_init"),
    Target("repro.simulation.simulator", "Simulation.run", "simulation", "simulation.run", "on_run"),
    Target("repro.simulation.simulator", "Simulation._start_job", "simulation"),
    Target("repro.sim.engine", "SimulationEngine.schedule", None, "sim.engine.schedule"),
    Target("repro.sim.engine", "SimulationEngine.schedule_at", None, "sim.engine.schedule"),
    Target("repro.sim.engine", "SimulationEngine.cancel", None, "sim.engine.cancel"),
    # Initial-condition generators.
    Target("repro.workloads.generator", "generate_jobs", "workloads.generate_jobs", "workloads.generate_jobs", "on_jobs"),
    Target("repro.platform.failures", "generate_failure_trace", "platform.failures.generate", "platform.failures.generate", "on_failures"),
    # Result store: the filesystem cache, the CLI default and the only one used.
    Target("repro.exec.cache", "ResultCache.put", "store.put", "store.put"),
    Target("repro.exec.cache", "ResultCache.get", "store.get", "store.get", "on_get"),
    # Execution layer: config digest and the runner's per-cell dispatch.
    Target("repro.exec.digest", "config_digest", "exec.digest", "exec.digest"),
    Target("repro.exec.runner", "ParallelRunner.run_config", "exec"),
    Target("repro.exec.runner", "ParallelRunner.map_seeds", "exec"),
    # Campaign expansion and rendering.
    Target("repro.scenarios.campaign", "Campaign.from_file", "scenarios.expand"),
    Target("repro.scenarios.campaign", "Campaign.scenarios", "scenarios.expand"),
    Target("repro.scenarios.report", "render_campaign", "scenarios.render"),
    Target("repro.scenarios.report", "campaign_to_csv", "scenarios.render"),
)


class Tracer:
    """Span stack, per-layer self times and counters of one process."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = defaultdict(float)
        self.seed_ms: list[float] = []
        self.present: set[str] = set()
        self.missing: list[str] = []
        # Open spans: [layer, start, time covered by children].
        self._stack: list[list[Any]] = []
        self._init_s: dict[int, float] = {}
        # (owner, attribute name, original) for every binding replaced.
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ spans
    def enter(self, layer: str, now: float) -> None:
        self._stack.append([layer, now, 0.0])

    def exit(self, now: float) -> float:
        """Close the innermost span at ``now``; returns its duration."""
        layer, start, covered = self._stack.pop()
        duration = now - start
        self.self_s[layer] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        if all(open_span[0] != layer for open_span in self._stack):
            self.incl_s[layer] += duration
        return duration

    # ------------------------------------------------------------ hooks
    def on_select(self, duration: float, args: tuple, result: Any) -> None:
        self.values["iosched.candidates"] += len(args[0])

    def on_init(self, duration: float, args: tuple, result: Any) -> None:
        self._init_s[id(args[0])] = duration

    def on_run(self, duration: float, args: tuple, result: Any) -> None:
        self.values["simulation.events"] += result.events_fired
        self.seed_ms.append((self._init_s.pop(id(args[0]), 0.0) + duration) * 1e3)

    def on_jobs(self, duration: float, args: tuple, result: Any) -> None:
        self.values["workloads.jobs"] += len(result)

    def on_failures(self, duration: float, args: tuple, result: Any) -> None:
        self.values["platform.failures.count"] += len(result)

    def on_get(self, duration: float, args: tuple, result: Any) -> None:
        if result is not None:
            self.values["store.hits"] += 1

    # ------------------------------------------------------------ wrapping
    def _wrap(self, fn: Any, target: Target) -> Any:
        if isinstance(fn, (classmethod, staticmethod)):
            return type(fn)(self._wrap(fn.__func__, target))
        counts, layer, counter = self.counts, target.layer, target.counter
        if layer is None:
            def counted(*args: Any, **kwargs: Any) -> Any:
                counts[counter] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)
        hook = getattr(self, target.hook) if target.hook else None
        clock, enter, exit_ = time.perf_counter, self.enter, self.exit

        def spanned(*args: Any, **kwargs: Any) -> Any:
            if counter is not None:
                counts[counter] += 1
            enter(layer, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = exit_(clock())
            if hook is not None:
                hook(duration, args, result)
            return result

        return functools.wraps(fn)(spanned)

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        # id(original) -> wrapper; the originals stay referenced by _patched.
        originals: dict[int, Callable] = {}
        for target in self.targets:
            owner, name = _resolve(target)
            if owner is None or name not in vars(owner):
                self.missing.append(f"{target.module}.{target.qualname}")
                continue
            original = vars(owner)[name]
            wrapper = self._wrap(original, target)
            self._patch(owner, name, wrapper)
            originals[id(original)] = wrapper
            self.present.update(filter(None, (target.layer, target.counter)))
        # Functions imported by name elsewhere (``from x import f``) are
        # separate bindings: rebind every loaded repro module's copy too.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patch(module, name, wrapper)

    def _patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Put every original binding back, including copies imported after install."""
        # Keyed by id, holding the wrapper itself so the id stays its own.
        wrappers = {
            id(wrapper): (wrapper, original)
            for owner, name, original in self._patched
            for wrapper in [vars(owner)[name]]
        }
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, name, wrappers[id(value)][1])
        self._patched.clear()

    def wrapped_bindings(self) -> list[tuple[Any, str, Any]]:
        """The ``(owner, name, original)`` triples currently replaced."""
        return list(self._patched)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready aggregates of everything recorded."""
        return {
            "counts": dict(self.counts),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "values": dict(self.values),
            "seed_ms": self.seed_ms,
            "present": sorted(self.present),
            "missing": self.missing,
        }


def _resolve(target: Target) -> tuple[Any, str]:
    """``(owner, attribute)`` of a target, or ``(None, "")`` when it has gone."""
    try:
        owner: Any = importlib.import_module(target.module)
    except ImportError:
        return None, ""
    *path, name = target.qualname.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if not isinstance(owner, type):
            return None, ""
    return owner, name


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
