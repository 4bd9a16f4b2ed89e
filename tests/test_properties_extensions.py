"""Property-based tests for the extension modules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import from_edges
from repro.partition import HashPartitioner
from repro.partition.refine import refine_assignment
from repro.partition.vertexcut import (
    DBHPartitioner,
    HDRFPartitioner,
    RandomEdgePartitioner,
    replication_factor,
)

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graphs(draw, max_vertices=50, max_edges=150):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return from_edges(src, dst, n)


class TestVertexCutProperties:
    @given(graphs(), st.integers(1, 6), st.sampled_from([0, 1, 2]))
    @settings(max_examples=40, **COMMON)
    def test_edge_totality_and_replication_bounds(self, g, k, which):
        algo = [RandomEdgePartitioner(), DBHPartitioner(), HDRFPartitioner()][which]
        p = algo.partition(g, k)
        assert p.edge_counts.sum() == g.num_undirected_edges
        # a vertex with at least one edge has between 1 and min(k, deg) copies
        copies = p.copies
        deg_nonzero = g.degrees > 0
        assert (copies[deg_nonzero] >= 1).all()
        assert (copies <= np.minimum(k, np.maximum(g.degrees, 1))).all()
        if g.num_undirected_edges:
            assert 1.0 <= replication_factor(p) <= k

    @given(graphs())
    @settings(max_examples=30, **COMMON)
    def test_single_part_never_replicates(self, g):
        p = HDRFPartitioner().partition(g, 1)
        assert (p.copies[g.degrees > 0] == 1).all()


class TestRefineProperties:
    @given(graphs(), st.integers(2, 5))
    @settings(max_examples=30, **COMMON)
    def test_refine_invariants(self, g, k):
        k = min(k, g.num_vertices)
        a = HashPartitioner().partition(g, k).assignment
        r = refine_assignment(a, epsilon=0.3, rounds=2)
        # totality + conservation always hold
        assert r.vertex_counts.sum() == g.num_vertices
        assert r.edge_counts.sum() == g.num_edges
        # cut never increases
        from repro.partition.metrics import edge_cut_ratio

        assert edge_cut_ratio(g, r.parts) <= edge_cut_ratio(g, a.parts) + 1e-12
