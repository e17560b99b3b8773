"""Wraps around the library's public entry points, installed from outside.

Nothing under ``src/`` is edited: every measurement comes from replacing
an attribute (a class method or a module global) with a timing wrapper
for the length of one run and putting the original back afterwards.
:class:`Patches` owns that bookkeeping and can prove the restore.

Two recorders use it:

* :class:`Probe` is always on.  It times each ``Planner.plan(t)`` call (a
  wake) and each ``plan_leg`` / ``continue_leg`` call the engine makes
  (a leg) — the samples behind the end-to-end latency percentiles.  Two
  ``perf_counter`` reads per call are its whole cost.
* :class:`Tracer` is on only in a traced run.  It wraps one boundary per
  layer (module names are the layer names) and turns the spans into the
  per-layer metrics.  A span that starts while another traced span is
  open is *nested*: it counts toward its own layer but not again toward
  the charged total, so ``trace.charged_share`` never double counts.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

_MISSING = object()


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any, Any]] = []

    def wrap(self, owner: Any, name: str,
             make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` with ``make(original)``."""
        own = vars(owner).get(name, _MISSING)
        original = getattr(owner, name)
        replacement = make(original)
        setattr(owner, name, replacement)
        self._undo.append((owner, name, own, replacement))

    def restore(self) -> List[str]:
        """Undo every replacement; return the ones that did not restore."""
        broken = []
        while self._undo:
            owner, name, own, replacement = self._undo.pop()
            if vars(owner).get(name) is not replacement:
                broken.append(f"{_label(owner)}.{name} was replaced again")
            if own is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, own)
            if vars(owner).get(name, _MISSING) is not own:
                broken.append(f"{_label(owner)}.{name} not restored")
        return broken


def _label(owner: Any) -> str:
    return getattr(owner, "__qualname__", getattr(owner, "__name__",
                                                  repr(owner)))


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Probe:
    """Wake and leg latency samples (seconds), for the end-to-end metrics."""

    def __init__(self, planner_cls: type) -> None:
        self.planner_cls = planner_cls
        self.wakes: List[float] = []
        self.legs: List[float] = []
        #: Seconds spent inside any planner entry point the engine calls.
        self.planner_s = 0.0
        self._patches = Patches()

    def _timed(self, sink: List[float]):
        probe = self
        clock = time.perf_counter

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                started = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = clock() - started
                    sink.append(elapsed)
                    probe.planner_s += elapsed
            return wrapper
        return make

    def install(self) -> None:
        cls = self.planner_cls
        self._patches.wrap(cls, "plan", self._timed(self.wakes))
        self._patches.wrap(cls, "plan_leg", self._timed(self.legs))
        self._patches.wrap(cls, "continue_leg", self._timed(self.legs))

    def restore(self) -> List[str]:
        return self._patches.restore()


#: Per-tier leg classes, in the order the metrics list them.
TIER_CLASSES = ("tier0", "rescue", "full", "windowed", "wait")


class Tracer:
    """Per-layer spans and counts around one run."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Seconds of top-level (non-nested) traced spans.
        self.charged_s = 0.0
        self._depth = 0
        self._open: Dict[str, bool] = defaultdict(bool)
        self._patches = Patches()

    # -- the span wrapper -----------------------------------------------------

    def span(self, layer: str, keep_samples: bool = False,
             after: Callable[[Any, float], None] = None):
        """A ``make`` callable for :meth:`Patches.wrap` timing ``layer``.

        A call made while the same layer is already open (an override
        calling ``super()``) is passed straight through, so each layer
        counts one span per outermost call.
        """
        tracer = self
        clock = time.perf_counter

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if tracer._open[layer]:
                    return original(*args, **kwargs)
                tracer._open[layer] = True
                top = tracer._depth == 0
                tracer._depth += 1
                started = clock()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    elapsed = clock() - started
                    tracer._depth -= 1
                    tracer._open[layer] = False
                    tracer.seconds[layer] += elapsed
                    tracer.calls[layer] += 1
                    if top:
                        tracer.charged_s += elapsed
                    if keep_samples:
                        tracer.samples[layer].append(elapsed)
                    if after is not None:
                        after(result, elapsed)
            return wrapper
        return make

    # -- installation ---------------------------------------------------------

    def install(self, planner_cls: type) -> None:
        """Wrap one boundary per layer.

        ``planner_cls`` is the concrete planner class the run uses: its
        ``advance`` hook is the engine's last planner entry point (the
        purge cadence), timed so engine self time excludes it.
        """
        from repro.experiments import soak
        from repro.pathfinding import (cache, free_flow, pipeline,
                                       reservation, st_astar)
        from repro.sim import engine
        from repro.warehouse import state

        wrap = self._patches.wrap
        for name in ("idle_robots", "selectable_racks"):
            wrap(state.WarehouseState, name, self.span("warehouse.state"))
        for name in ("process_picker_tick", "advance_picker_span"):
            wrap(engine, name, self.span("sim.queueing"))
        wrap(pipeline.FallbackChain, "plan_leg",
             self.span("pipeline", after=self._classify_leg))
        wrap(free_flow.FreeFlowPathCache, "kernel_leg",
             self.span("free_flow.kernel_leg"))
        for module in (pipeline, cache):
            wrap(module, "follow_with_waits",
                 self.span("cache.follow_with_waits",
                           after=self._count_served))
        for module in (st_astar, pipeline):
            wrap(module, "search",
                 self.span("st_astar.search", after=self._count_expansions))
        for table in _subclasses(reservation.ReservationTable):
            if "reserve_path" in vars(table):
                wrap(table, "reserve_path",
                     self.span("reservation.reserve", keep_samples=True))
            if "purge_before" in vars(table):
                wrap(table, "purge_before", self.span("reservation.purge"))
        wrap(soak, "dump_checkpoint",
             self.span("checkpoint.dump", after=self._count_bytes))
        wrap(soak, "load_checkpoint_bytes", self.span("checkpoint.load"))
        for name in ("run", "run_until"):
            wrap(engine.Simulation, name, self._engine_delta)
        wrap(planner_cls, "advance", self._planner_advance)

    def restore(self) -> List[str]:
        return self._patches.restore()

    # -- count hooks ----------------------------------------------------------

    def _classify_leg(self, leg, elapsed: float) -> None:
        if leg is None:
            return  # the chain raised; the run fails on its own
        from repro.pathfinding import pipeline
        if leg.tier == pipeline.TIER_FREE_FLOW:
            tier = ("rescue" if leg.fastpath == pipeline.FASTPATH_RESCUE
                    else "tier0")
        elif leg.tier == pipeline.TIER_FULL:
            tier = "full"
        elif leg.tier == pipeline.TIER_WINDOWED:
            tier = "windowed"
        else:
            tier = "wait"
        self.samples["pipeline." + tier].append(elapsed)
        if leg.fastpath != pipeline.FASTPATH_OFF:
            self.counts["pipeline.tier0_attempts"] += 1

    def _count_served(self, steps, elapsed: float) -> None:
        if steps is not None:
            self.counts["cache.follow_with_waits_served"] += 1

    def _count_expansions(self, outcome, elapsed: float) -> None:
        if outcome is not None:
            self.counts["st_astar.expansions"] += outcome.stats.expansions

    def _count_bytes(self, blob, elapsed: float) -> None:
        if blob is not None:
            self.counts["checkpoint.bytes"] += len(blob)

    def _engine_delta(self, original):
        """Accumulate event and planner-stat deltas over run/run_until."""
        tracer = self

        @functools.wraps(original)
        def wrapper(sim, *args, **kwargs):
            stats = sim.planner.stats
            before = (sim.events_processed, stats.selection_seconds,
                      stats.schemes_emitted, stats.assignments_emitted)
            try:
                return original(sim, *args, **kwargs)
            finally:
                stats = sim.planner.stats
                after = (sim.events_processed, stats.selection_seconds,
                         stats.schemes_emitted, stats.assignments_emitted)
                for key, b, a in zip(("events", "selection_s", "schemes",
                                      "assignments"), before, after):
                    tracer.counts["engine." + key] += a - b
        return wrapper

    def _planner_advance(self, original):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.counts["planner.advance_s"] += clock() - started
        return wrapper

    # -- the per-layer metrics ------------------------------------------------

    def metrics(self, wall_s: float, planner_s: float,
                setup: Dict[str, float]) -> Dict[str, float]:
        """Per-layer values (units as in ``BENCHMARK.json``)."""
        sec, calls, counts = self.seconds, self.calls, self.counts
        ms = 1000.0
        legs = calls["pipeline"]
        events = counts["engine.events"]
        schemes = counts["engine.schemes"]
        out: Dict[str, float] = {
            "repro.import_s": setup["import_s"],
            "workloads.build_s": setup["build_s"],
            "planners.init_s": setup["init_s"],
            "sim.engine.events": events,
            "sim.engine.events_per_s": _ratio(events, wall_s),
            "sim.engine.self_s": (wall_s - planner_s
                                  - counts["planner.advance_s"]),
            "sim.queueing.picker_s": sec["sim.queueing"],
            "sim.queueing.calls": calls["sim.queueing"],
            "warehouse.state.scan_s": sec["warehouse.state"],
            "warehouse.state.scans": calls["warehouse.state"],
            "planners.selection_s": counts["engine.selection_s"],
            "planners.assignments_per_wake": _ratio(
                counts["engine.assignments"], schemes),
            "pipeline.legs": legs,
        }
        for tier in TIER_CLASSES:
            samples = self.samples["pipeline." + tier]
            out[f"pipeline.{tier}.legs"] = len(samples)
            out[f"pipeline.{tier}.p50_ms"] = percentile(samples, 50) * ms
            out[f"pipeline.{tier}.p99_ms"] = percentile(samples, 99) * ms
        out["pipeline.tier0.hit_ratio"] = _ratio(
            len(self.samples["pipeline.tier0"]),
            counts["pipeline.tier0_attempts"])
        out["pipeline.wait_share"] = _ratio(
            len(self.samples["pipeline.wait"]), legs)
        out.update({
            "free_flow.kernel_leg_s": sec["free_flow.kernel_leg"],
            "free_flow.kernel_leg_calls": calls["free_flow.kernel_leg"],
            "cache.follow_with_waits_s": sec["cache.follow_with_waits"],
            "cache.follow_with_waits_calls":
                calls["cache.follow_with_waits"],
            "cache.rescue_served_ratio": _ratio(
                counts["cache.follow_with_waits_served"],
                calls["cache.follow_with_waits"]),
            "st_astar.search_s": sec["st_astar.search"],
            "st_astar.searches": calls["st_astar.search"],
            "st_astar.expansions": counts["st_astar.expansions"],
            "st_astar.expansions_per_s": _ratio(
                counts["st_astar.expansions"], sec["st_astar.search"]),
            "reservation.reserve_s": sec["reservation.reserve"],
            "reservation.reserve_calls": calls["reservation.reserve"],
            "reservation.reserve_p99_ms": percentile(
                self.samples["reservation.reserve"], 99) * ms,
            "reservation.purge_s": sec["reservation.purge"],
            "reservation.purge_calls": calls["reservation.purge"],
            "checkpoint.dump_s": sec["checkpoint.dump"],
            "checkpoint.load_s": sec["checkpoint.load"],
            "checkpoint.bytes": counts["checkpoint.bytes"],
            "trace.charged_share": _ratio(
                self.charged_s + counts["engine.selection_s"], wall_s),
        })
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _subclasses(cls: type) -> List[type]:
    seen: List[type] = []
    stack = [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                stack.append(sub)
    return seen
