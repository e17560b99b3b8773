"""The benchmark's workloads: how each is seeded, set up, run and checked.

Every workload runs single-process with the library's default configs
(``batch_workers=0``).  ``seed`` re-seeds only the item stream; ``None``
means the registry's own seed, the one the pins in ``pins.json`` were
taken at.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Optional

from repro.config import PlannerConfig, SimulationConfig
from repro.experiments import soak
from repro.planners import PLANNERS
from repro.sim.engine import Simulation
from repro.sim.serialize import deterministic_view, result_to_dict
from repro.workloads.datasets import fleet_ladder, make_mini
from repro.workloads.scenario import ItemStreamSpec, ScenarioSpec

from layers import Patches

@dataclass
class RepResult:
    """What one repetition measured and checked."""

    #: Build plus planner and simulation construction, once per
    #: repetition in its forked process; ``rep.py`` adds the library
    #: import to make the ``setup_s`` metric.
    setup_s: float = 0.0
    build_s: float = 0.0
    init_s: float = 0.0
    wall_s: float = 0.0
    makespan_ticks: int = 0
    mc_peak_bytes: int = 0
    digest: str = ""
    #: Failed output checks, by name (empty when the output is correct).
    failures: List[str] = field(default_factory=list)


def digest_of(result) -> str:
    """SHA-256 of a run's deterministic view (timing fields removed)."""
    view = deterministic_view(result_to_dict(result))
    payload = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _reseeded(spec: ScenarioSpec, seed: Optional[int]) -> ScenarioSpec:
    if seed is None:
        return spec
    params = spec.items.kwargs()
    params["seed"] = seed
    return spec.with_(items=ItemStreamSpec.of(spec.items.generator,
                                              **params))


class ScenarioWorkload:
    """A registry scenario drained by one ``Simulation.run()``."""

    def __init__(self, name: str, spec_factory: Callable[[], ScenarioSpec],
                 planner: str) -> None:
        self.name = name
        self._spec_factory = spec_factory
        self.planner = planner

    @property
    def planner_cls(self) -> type:
        return PLANNERS[self.planner]

    def run(self, seed: Optional[int]) -> RepResult:
        spec = _reseeded(self._spec_factory(), seed)
        out = RepResult()
        started = time.perf_counter()
        state, items = spec.build()
        built = time.perf_counter()
        planner = self.planner_cls(state, PlannerConfig())
        ready = time.perf_counter()
        sim = Simulation(state, planner, items, SimulationConfig())
        out.setup_s = time.perf_counter() - started
        out.build_s, out.init_s = built - started, ready - built
        gc.collect()  # every run starts from the same collector state
        try:
            started = time.perf_counter()
            result = sim.run()
            out.wall_s = time.perf_counter() - started
        finally:
            sim.planner.close()
        metrics = result.metrics
        out.makespan_ticks = metrics.makespan
        out.mc_peak_bytes = metrics.peak_memory_bytes
        out.digest = digest_of(result)
        last_arrival = max(item.arrival for item in items)
        if metrics.items_processed != len(items):
            out.failures.append("items_processed")
        if metrics.makespan <= last_arrival:
            out.failures.append("makespan_before_last_arrival")
        return out


class SoakWorkload:
    """The service soak: windows, a mid-run checkpoint, restore, drain."""

    def __init__(self, name: str, spec: soak.SoakSpec) -> None:
        self.name = name
        self.spec = spec

    @property
    def planner_cls(self) -> type:
        return PLANNERS[self.spec.planner]

    def _spec(self, seed: Optional[int]) -> soak.SoakSpec:
        if seed is None:
            return self.spec
        params = dict(self.spec.stream_params)
        params["seed"] = seed
        return replace(self.spec, stream_params=tuple(params.items()))

    def run(self, seed: Optional[int]) -> RepResult:
        spec = self._spec(seed)
        out = RepResult()
        captured: List[Any] = []

        def capture(original):
            def result_to_dict(result):
                captured.append(result)
                return original(result)
            return result_to_dict

        patches = Patches()
        patches.wrap(soak, "build_soak", lambda original: functools.partial(
            self._timed_build, out=out, build=original))
        patches.wrap(soak, "result_to_dict", capture)
        gc.collect()  # every run starts from the same collector state
        try:
            started = time.perf_counter()
            report = soak.run_soak(spec)
            total = time.perf_counter() - started
        finally:
            out.failures.extend(patches.restore())
        # The drain inside ``run_soak`` is the uninterrupted run; the
        # second capture is the restored run it is compared against.
        result = captured[0]
        out.wall_s = total - out.setup_s
        out.makespan_ticks = result.metrics.makespan
        out.mc_peak_bytes = result.metrics.peak_memory_bytes
        out.digest = digest_of(result)
        if not report["restore"]["bit_identical"]:
            out.failures.append("restore.bit_identical")
        if not report["flatness"]["flat"]:
            out.failures.append("flatness.flat")
        if report["final"]["makespan_ticks"] != out.makespan_ticks:
            out.failures.append("final_makespan")
        return out

    def _timed_build(self, spec, *args, out: RepResult, build, **kwargs):
        """``run_soak``'s own ``build_soak``, planner construction apart."""
        init: List[float] = []

        def timed(cls):
            def construct(*a, **kw):
                started = time.perf_counter()
                try:
                    return cls(*a, **kw)
                finally:
                    init.append(time.perf_counter() - started)
            return construct

        patches = Patches()
        patches.wrap(soak, "PLANNERS", lambda planners: {
            name: timed(cls) for name, cls in planners.items()})
        try:
            started = time.perf_counter()
            built = build(spec, *args, **kwargs)
            elapsed = time.perf_counter() - started
        finally:
            out.failures.extend(patches.restore())
        out.setup_s = elapsed
        out.init_s = sum(init)
        out.build_s = elapsed - sum(init)
        return built


#: Why each workload is here: ``BENCHMARK.json`` and ``README.md``.
WORKLOADS = {
    w.name: w for w in (
        ScenarioWorkload(
            "paper-scale-125",
            lambda: fleet_ladder(0.25, fleets=(), large_fleets=(500,))[0],
            "NTP"),
        SoakWorkload(
            "service-soak",
            soak.SoakSpec(duration=50_000, window_ticks=5_000)),
    )
}

#: The tracing neutrality self-test's scenario (seconds-fast).
MINI = ScenarioWorkload("mini", make_mini, "EATP")
