"""Invalid-run-state guards: engines and clusters refuse impossible runs
with :class:`~repro.errors.SimulationError` instead of silent nonsense."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import BSPCluster
from repro.cluster.faults import FaultPlan
from repro.engines.gemini import GeminiEngine, PageRank
from repro.engines.knightking import WalkEngine
from repro.engines.knightking.apps import DeepWalk
from repro.errors import ConfigurationError, SimulationError
from repro.graph.builder import from_edges
from repro.partition import get_partitioner
from repro.partition.assignment import PartitionAssignment


def _empty_graph():
    return from_edges(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 0)


def _assignment(graph, parts=2):
    if graph.num_vertices == 0:
        # Partitioners reject empty graphs outright; build the (empty)
        # assignment directly to reach the engine-level guards.
        return PartitionAssignment(graph, np.array([], dtype=np.int32), parts)
    return get_partitioner("hash").partition(graph, parts).assignment


class TestWalkEngineGuards:
    def test_empty_graph_rejected(self):
        g = _empty_graph()
        assignment = _assignment(g)
        engine = WalkEngine(BSPCluster(2))
        with pytest.raises(SimulationError, match="empty graph"):
            engine.run(g, assignment, DeepWalk())

    def test_empty_start_vertices_rejected(self, ring64):
        assignment = _assignment(ring64)
        engine = WalkEngine(BSPCluster(2))
        with pytest.raises(SimulationError, match="start_vertices is empty"):
            engine.run(
                ring64,
                assignment,
                DeepWalk(),
                start_vertices=np.array([], dtype=np.int64),
            )


    # The compiled step reads every target it moves a walker to: an app that
    # returns ids outside the graph, or too few of them, is stopped first.
    @pytest.mark.parametrize("step, match", [
        (lambda pos: (pos + 1000, np.zeros(pos.size, bool)), "stepped to 1"),
        (lambda pos: (-np.ones(pos.size, np.int64), np.zeros(pos.size, bool)), "stepped to -1"),
        (lambda pos: (pos[:-1], np.zeros(pos.size - 1, bool)), "targets and flags"),
    ], ids=["past-n", "negative", "short"])
    def test_bad_app_steps_rejected(self, ring64, step, match):
        class Broken(DeepWalk):
            def advance(self, graph, positions, previous, rng):
                return step(positions)

        with pytest.raises(SimulationError, match=match):
            WalkEngine(BSPCluster(2)).run(ring64, _assignment(ring64), Broken())

    # The compiled step reads the assignment at every walker's vertex: one
    # computed for another graph (a smaller one, with walkers past its end,
    # or one of the same size) is refused before any walker moves.
    @pytest.mark.parametrize("n", [32, 64])
    def test_assignment_of_another_graph_rejected(self, ring64, n):
        other = from_edges(np.arange(n), (np.arange(n) + 2) % n, num_vertices=n)
        with pytest.raises(SimulationError, match="different graph"):
            WalkEngine(BSPCluster(2)).run(ring64, _assignment(other), DeepWalk(),
                                          start_vertices=np.arange(32, 64))

    def test_terminated_walkers_may_report_any_target(self, ring64):
        class Stops(DeepWalk):
            def advance(self, graph, positions, previous, rng):
                return -np.ones(positions.size, np.int64), np.ones(positions.size, bool)

        res = WalkEngine(BSPCluster(2)).run(ring64, _assignment(ring64), Stops())
        assert res.total_steps == 0 and res.num_supersteps == 1


class TestGeminiEngineGuards:
    def test_empty_graph_rejected(self):
        g = _empty_graph()
        assignment = _assignment(g)
        engine = GeminiEngine(BSPCluster(2))
        with pytest.raises(SimulationError, match="empty graph"):
            engine.run(g, assignment, PageRank(iterations=3))

    def test_active_mask_of_the_wrong_size_rejected(self, ring64):
        class Short(PageRank):
            def initialize(self, graph):
                state, active = super().initialize(graph)
                return state, active[:-1]

        with pytest.raises(SimulationError, match="63 active flags, n=64"):
            GeminiEngine(BSPCluster(2)).run(ring64, _assignment(ring64), Short(iterations=3))


class TestFaultClusterGuards:
    def test_crash_everything_plan_rejected_upfront(self, ring64):
        # A plan that crashes every machine is refused at construction.
        assignment = _assignment(ring64, parts=2)
        plan = FaultPlan.from_json(
            '{"crashes": [{"superstep": 0, "machine": 0},'
            ' {"superstep": 0, "machine": 1}], "recovery": "redistribute"}'
        )
        with pytest.raises(ConfigurationError, match="no survivors"):
            BSPCluster(2, plan, graph=ring64, assignment=assignment)

    def test_superstep_after_total_cluster_loss(self, ring64):
        # Defensive guard: a cluster whose liveness mask is empty (a
        # state no valid plan reaches, since the last redistribute
        # raises first) refuses further supersteps instead of recording
        # all-zero iterations.
        assignment = _assignment(ring64, parts=2)
        cluster = BSPCluster(2, graph=ring64, assignment=assignment)
        cluster.begin_run()
        cluster._alive[:] = False
        with pytest.raises(SimulationError, match="every machine has crashed"):
            cluster.superstep(steps=np.ones(2))
