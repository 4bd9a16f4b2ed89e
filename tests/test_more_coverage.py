"""Additional coverage: engine corners, greedy-mode termination,
IO caveats, workload factory."""

from __future__ import annotations

import numpy as np

from repro.cluster import BSPCluster
from repro.engines.gemini import GeminiEngine, PageRank
from repro.engines.knightking import PPR, WalkEngine
from repro.graph import chung_lu, read_edge_list, write_edge_list
from repro.partition import HashPartitioner


class TestGreedyModeCorners:
    def test_ppr_terminations_in_greedy_mode(self):
        """Walkers that stop mid-greedy-run must not be advanced again."""
        g = chung_lu(400, 8.0, rng=150)
        a = HashPartitioner().partition(g, 2).assignment
        engine = WalkEngine(BSPCluster(2), seed=151, mode="greedy", record_paths=True)
        res = engine.run(g, a, PPR(stop_prob=0.3), walkers_per_vertex=1, max_steps=30)
        lengths = (res.paths >= 0).sum(axis=1) - 1
        assert lengths.max() <= 30
        assert res.total_steps == int(lengths.sum())

    def test_greedy_single_machine_one_superstep(self):
        """With one machine nothing ever crosses: the whole job is one
        superstep of local computation."""
        g = chung_lu(300, 8.0, rng=152)
        a = HashPartitioner().partition(g, 1).assignment
        engine = WalkEngine(BSPCluster(1), seed=153, mode="greedy")
        res = engine.run(g, a, PPR(stop_prob=0.2), walkers_per_vertex=1, max_steps=50)
        assert res.num_supersteps == 1
        assert res.total_messages == 0


class TestGeminiCorners:
    def test_full_frontier_compute_covers_all_edges(self):
        # With every vertex active, push mode charges each machine all of
        # its local arcs and vertices.
        g = chung_lu(300, 8.0, rng=155)
        a = HashPartitioner().partition(g, 4).assignment
        res = GeminiEngine(BSPCluster(4)).run(g, a, PageRank(2))
        cm = BSPCluster(4).cost_model
        expected = cm.compute_seconds(
            edges=np.bincount(a.parts, weights=g.degrees, minlength=4),
            vertices=a.vertex_counts.astype(float),
        )
        assert np.allclose(res.ledger.compute_matrix[0], expected)


class TestIOCaveats:
    def test_trailing_isolated_vertices_are_lost(self, tmp_path):
        """Edge-list text cannot express trailing isolated vertices."""
        from repro.graph import from_edges

        g = from_edges([0, 1], [1, 2], num_vertices=6)
        p = tmp_path / "g.txt"
        write_edge_list(g, p)
        assert read_edge_list(p).num_vertices == 3  # ids 3..5 are unrepresentable


class TestWorkloadFactory:
    def test_make_partitioners(self):
        from repro.bench.workloads import PAPER_PARTITIONERS, make_partitioners

        parts = make_partitioners(seed=7)
        assert set(parts) == set(PAPER_PARTITIONERS)
        for name, p in parts.items():
            assert p.name == name
