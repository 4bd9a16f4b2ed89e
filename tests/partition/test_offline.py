"""Unit tests for the offline comparators: multilevel and GD."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ConfigurationError
from repro.graph import grid_graph, ring_graph, social_graph
from repro.partition import (
    GDPartitioner,
    HashPartitioner,
    MultilevelPartitioner,
    bias,
    edge_cut_ratio,
)


@pytest.fixture(scope="module")
def g():
    return social_graph(2500, 14.0, 2.2, rng=20)


class TestMultilevel:
    def test_vertex_balance_within_slack(self, g):
        a = MultilevelPartitioner().partition(g, 8).assignment
        # bias <= slack-1 within rounding effects
        assert bias(a.vertex_counts) < 0.10

    def test_edges_left_imbalanced_on_skewed_graph(self, g):
        # the §4.2 point: offline vertex-balanced partitioners do not
        # balance edges on scale-free graphs
        a = MultilevelPartitioner().partition(g, 8).assignment
        assert bias(a.edge_counts) > 0.15

    def test_cut_below_hash_on_structured_graph(self):
        g = grid_graph(40, 40)
        ml = MultilevelPartitioner(seed=1).partition(g, 4).assignment
        h = HashPartitioner().partition(g, 4).assignment
        assert edge_cut_ratio(g, ml.parts) < edge_cut_ratio(g, h.parts) / 2

    def test_all_vertices_assigned(self, g):
        a = MultilevelPartitioner().partition(g, 6).assignment
        assert a.vertex_counts.sum() == g.num_vertices
        assert (a.vertex_counts > 0).all()

    def test_small_graph_no_coarsening(self):
        g = ring_graph(30)
        a = MultilevelPartitioner().partition(g, 3).assignment
        assert a.vertex_counts.sum() == 30

    def test_clock_phases(self, g):
        telemetry.set_enabled(True)
        MultilevelPartitioner().partition(g, 4)
        phases = [
            s["args"]["phase"] for s in telemetry.registry().spans if s["name"] == "partition.phase"
        ]
        assert phases == ["coarsen", "initial", "refine"]


class TestGD:
    def test_two_dimensional_balance(self, g):
        a = GDPartitioner(seed=1).partition(g, 8).assignment
        assert bias(a.vertex_counts) < 0.1
        assert bias(a.edge_counts) < 0.35  # looser: heuristic rounding

    def test_power_of_two_only(self, g):
        with pytest.raises(ConfigurationError):
            GDPartitioner().partition(g, 6)

    def test_bisection_exact_vertex_split(self, g):
        a = GDPartitioner(seed=1).partition(g, 2).assignment
        v = a.vertex_counts
        assert abs(int(v[0]) - int(v[1])) <= 1

    def test_cut_on_ring_better_than_random(self):
        g = ring_graph(256)
        gd = GDPartitioner(seed=3).partition(g, 2).assignment
        h = HashPartitioner().partition(g, 2).assignment
        assert edge_cut_ratio(g, gd.parts) < edge_cut_ratio(g, h.parts)

    def test_all_parts_populated(self, g):
        a = GDPartitioner(seed=1).partition(g, 4).assignment
        assert (a.vertex_counts > 0).all()

    def test_deterministic(self, g):
        a = GDPartitioner(seed=5).partition(g, 4).assignment
        b = GDPartitioner(seed=5).partition(g, 4).assignment
        assert np.array_equal(a.parts, b.parts)
