"""The paper-scale auto-gate and what it arms: region-sharded
reservations, the tier-0.5 wait-following rescue and deep-tie ordering.

Floors of at least ``PAPER_SCALE_MIN_CELLS`` cells switch the machinery
on; every smaller floor keeps the paper-faithful structures, so its runs
stay byte-identical.  A wake still plans and commits its legs one after
another, so each committed leg is conflict-free against every leg
committed before it — on the sharded tables too.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import PAPER_SCALE_MIN_CELLS, PlannerConfig
from repro.experiments.harness import run_planner
from repro.pathfinding.cdt import ShardedConflictDetectionTable
from repro.pathfinding.heuristics import HeuristicFieldCache
from repro.pathfinding.paths import Path
from repro.pathfinding.pipeline import (FASTPATH_AUDIT_REJECT,
                                        FASTPATH_RESCUE, TIER_FREE_FLOW,
                                        TIER_FULL, FallbackChain)
from repro.pathfinding.spatiotemporal_graph import (
    ShardedSpatiotemporalGraph, SpatiotemporalGraph)
from repro.pathfinding.st_astar import find_path
from repro.planners import PLANNERS
from repro.sim.metrics import BATCH_KEYS
from repro.sim.serialize import metrics_from_dict, metrics_to_dict
from repro.warehouse.entities import Item, Picker, Rack, Robot
from repro.warehouse.grid import Grid
from repro.warehouse.state import WarehouseState
from repro.workloads.datasets import ItemStreamSpec, make_mini


def bursty_mini(seed: int, n_items: int = 30):
    """The mini floor under arrivals fast enough to co-idle robots.

    The stock mini stream (poisson rate 0.4) wakes the planner one leg
    at a time; at rate 3.0 several items land per tick, so wakes carry
    several legs and their descents collide.
    """
    spec = make_mini(seed=seed, n_items=n_items)
    return replace(spec, items=ItemStreamSpec.of(
        "poisson", n_items=n_items, n_racks=12, rate=3.0, seed=seed,
        processing_low=5, processing_high=12))


class TestPaperScaleAccounting:
    def test_counters_zero_below_gate(self):
        spec = make_mini(seed=7, n_items=30)
        result = run_planner(spec, "NTP")
        assert result.metrics.batch_view() == {key: 0 for key in BATCH_KEYS}

    def test_rescue_metrics_round_trip(self):
        # Forcing the rescue on below the gate makes the block non-zero
        # (seed 3 is pinned: one conflicted descent gets rescued).
        result = run_planner(bursty_mini(seed=3), "NTP",
                             planner_config=PlannerConfig(
                                 free_flow_rescue=True))
        batch = result.metrics.batch_view()
        assert batch["rescued_legs"] > 0
        # The retired batched-wake counters stay in the view as zeros.
        assert batch["batched_wakes"] == batch["batched_legs"] == 0
        assert batch["batch_conflicts"] == 0
        rebuilt = metrics_from_dict(metrics_to_dict(result.metrics))
        assert rebuilt.batch_view() == batch


class TestPaperScaleAutoGate:
    def test_small_floor_defaults_off(self):
        state, __ = make_mini(seed=3, n_items=10).build()
        planner = PLANNERS["NTP"](state)
        assert planner.paper_scale is False
        assert planner.sharded_reservations is False
        assert planner.pipeline.rescue_enabled is False
        assert isinstance(planner.reservation, SpatiotemporalGraph)

    def test_paper_floor_defaults_on(self):
        # 128x128 sits exactly on the gate (16,384 cells >= the floor).
        assert 128 * 128 == PAPER_SCALE_MIN_CELLS
        state = WarehouseState(grid=Grid(128, 128), racks=[],
                               pickers=[], robots=[])
        planner = PLANNERS["NTP"](state)
        assert planner.paper_scale is True
        assert planner.sharded_reservations is True
        assert planner.pipeline.rescue_enabled is True
        assert isinstance(planner.reservation, ShardedSpatiotemporalGraph)

    def test_explicit_knobs_override_the_gate(self):
        big = WarehouseState(grid=Grid(128, 128), racks=[],
                             pickers=[], robots=[])
        forced_off = PLANNERS["NTP"](big, PlannerConfig(
            reservation_sharding=False, free_flow_rescue=False))
        assert forced_off.sharded_reservations is False
        assert forced_off.pipeline.rescue_enabled is False
        assert isinstance(forced_off.reservation, SpatiotemporalGraph)

        small, __ = make_mini(seed=3, n_items=10).build()
        forced_on = PLANNERS["ATP"](small,
                                    PlannerConfig(reservation_sharding=True))
        assert forced_on.sharded_reservations is True

    def test_eatp_sharded_cdt_at_paper_scale(self):
        # EATP's KNN index needs at least one rack to index.
        state = WarehouseState(grid=Grid(128, 128),
                               racks=[Rack(rack_id=0, home=(4, 4),
                                           picker_id=0)],
                               pickers=[], robots=[])
        planner = PLANNERS["EATP"](state)
        assert isinstance(planner.reservation, ShardedConflictDetectionTable)


class TestMultiLegWake:
    def crossing_floor(self):
        """A gate-sized floor whose two pickup legs cross head-on in time.

        Robot 0 runs east along row 20 and robot 1 north along column 20;
        both straight descents reach (20, 20) at the tenth tick.
        """
        racks = [Rack(rack_id=0, home=(30, 20), picker_id=0),
                 Rack(rack_id=1, home=(20, 30), picker_id=0)]
        for rack in racks:
            rack.pending_items.append(Item(item_id=rack.rack_id,
                                           rack_id=rack.rack_id, arrival=0,
                                           processing_time=5))
        return WarehouseState(
            grid=Grid(128, 128), racks=racks,
            pickers=[Picker(picker_id=0, location=(60, 60))],
            robots=[Robot(robot_id=0, location=(10, 20)),
                    Robot(robot_id=1, location=(20, 10))])

    def test_crossing_pickup_legs_commit_conflict_free(self):
        state = self.crossing_floor()
        planner = PLANNERS["NTP"](state)
        assert isinstance(planner.reservation, ShardedSpatiotemporalGraph)
        scheme = planner.plan(0)
        paths = [assignment.pickup_path for assignment in scheme]
        assert len(paths) == 2
        # The legs really cross, and the second saw the first's commit.
        first, second = ({(x, y) for __, x, y in path.steps}
                         for path in paths)
        assert first & second
        assert (planner.stats.rescued_legs
                + planner.stats.fastpath_audit_rejects) >= 1
        # Replay the commits onto a fresh, independent table: each path
        # must audit clean against everything committed before it.
        fresh = SpatiotemporalGraph(state.grid)
        for path in paths:
            assert fresh.audit_path(path) is True
            fresh.reserve_path(path)


class TestWaitFollowingRescue:
    GRID = None  # built per test; all-passable 12x10 floor

    def make_chain(self, reservation, config, full_search=None):
        grid = reservation.grid if hasattr(reservation, "grid") \
            else Grid(12, 10)
        heuristics = HeuristicFieldCache(grid)

        def default_full(t, source, goal):
            return find_path(grid, reservation, source, goal, t,
                             heuristic=heuristics.field(goal),
                             max_expansions=config.max_search_expansions)

        return FallbackChain(grid=grid, reservation=reservation,
                             heuristics=heuristics, config=config,
                             full_search=full_search or default_full,
                             finisher_factory=lambda goal: (None, 0))

    def never_search(self, t, source, goal):
        raise AssertionError("the rescue should have served this leg")

    def test_forced_rescue_serves_conflicted_descent(self):
        grid = Grid(12, 10)
        reservation = SpatiotemporalGraph(grid)
        # A robot parks on (3, 5) until t=4, squarely on the only
        # monotone descent from (0, 5) to (6, 5).
        blocker = Path.from_cells([(3, 5)] * 4 + [(3, 4)], start_time=0)
        reservation.reserve_path(blocker)
        config = PlannerConfig(free_flow_rescue=True)
        chain = self.make_chain(reservation, config,
                                full_search=self.never_search)
        leg = chain.plan_leg(0, (0, 5), (6, 5))
        assert leg.tier == TIER_FREE_FLOW
        assert leg.fastpath == FASTPATH_RESCUE
        assert leg.complete
        assert leg.path.source == (0, 5)
        assert leg.path.goal == (6, 5)
        assert len(leg.path) > 7  # at least one inserted wait
        assert reservation.audit_path(leg.path) is True

    def test_rescue_declines_past_wait_caps(self):
        grid = Grid(12, 10)
        reservation = SpatiotemporalGraph(grid)
        # The blocker sits far longer than the rescue's wait budget.
        blocker = Path.from_cells([(3, 5)] * 40, start_time=0)
        reservation.reserve_path(blocker)
        config = PlannerConfig(free_flow_rescue=True,
                               rescue_wait_per_step=2, rescue_total_wait=2)
        chain = self.make_chain(reservation, config)
        leg = chain.plan_leg(0, (0, 5), (6, 5))
        # Rescue gave up; the leg fell into the unchanged tier-1 search.
        assert leg.fastpath == FASTPATH_AUDIT_REJECT
        assert leg.tier == TIER_FULL
        assert leg.path.goal == (6, 5)

    def test_rescue_defaults_off_below_the_gate(self):
        grid = Grid(12, 10)
        assert grid.n_cells < PAPER_SCALE_MIN_CELLS
        chain = self.make_chain(SpatiotemporalGraph(grid), PlannerConfig())
        assert chain.rescue_enabled is False
        assert chain._rescue_leg(0, ((0, 5), (1, 5))) is None


class TestDeepTieOrdering:
    def test_paper_scale_tie_break_preserves_optimality(self, monkeypatch):
        """The deep-tie heap order changes expansion order, not cost."""
        from repro.pathfinding import st_astar

        def reserved_table(grid):
            table = SpatiotemporalGraph(grid)
            for cells, t0 in [([(4, y) for y in range(8)], 0),
                              ([(x, 3) for x in range(2, 9)], 2),
                              ([(7, 7), (7, 6), (7, 5)], 1)]:
                table.reserve_path(Path.from_cells(cells, start_time=t0))
            return table

        grid = Grid(12, 10)
        baseline = find_path(grid, reserved_table(grid), (0, 0), (10, 8), 0)
        monkeypatch.setattr(st_astar, "PAPER_SCALE_MIN_CELLS", 1)
        deep = find_path(grid, reserved_table(grid), (0, 0), (10, 8), 0)
        # Both reach the goal at the same (optimal) time; the route may
        # legitimately differ.
        assert deep.end_time == baseline.end_time
        assert deep.goal == baseline.goal
        assert reserved_table(grid).audit_path(deep) is True
