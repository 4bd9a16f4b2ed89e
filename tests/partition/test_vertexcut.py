"""Unit tests for the vertex-cut partitioner family."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, PartitionError
from repro.graph import chung_lu, ring_graph, star_graph
from repro.partition.vertexcut import (
    DBHPartitioner,
    EdgePartition,
    GridPartitioner,
    HDRFPartitioner,
    RandomEdgePartitioner,
    canonical_edges,
    edge_balance_bias,
    replication_factor,
)

ALL = [RandomEdgePartitioner, DBHPartitioner, HDRFPartitioner]


@pytest.fixture(scope="module")
def g():
    return chung_lu(800, 10.0, 2.2, rng=30)


class TestCanonicalEdges:
    def test_each_edge_once(self, triangle):
        src, dst = canonical_edges(triangle)
        assert sorted(zip(src, dst)) == [(0, 1), (0, 2), (1, 2)]

    def test_directed_keeps_arcs(self):
        from repro.graph import from_edges

        g = from_edges([0, 1], [1, 0], directed=True)
        src, dst = canonical_edges(g)
        assert src.size == 2


@pytest.mark.parametrize("cls", ALL)
class TestCommonContract:
    def test_every_edge_assigned(self, g, cls):
        p = cls().partition(g, 8)
        assert p.edge_parts.size == g.num_undirected_edges
        assert p.edge_counts.sum() == g.num_undirected_edges

    def test_replication_factor_bounds(self, g, cls):
        p = cls().partition(g, 8)
        rf = replication_factor(p)
        assert 1.0 <= rf <= 8.0

    def test_single_part_no_replication(self, g, cls):
        p = cls().partition(g, 1)
        assert replication_factor(p) == 1.0

    def test_invalid_parts(self, g, cls):
        with pytest.raises(ConfigurationError):
            cls().partition(g, 0)


class TestRandomEdge:
    def test_edge_balance(self, g):
        p = RandomEdgePartitioner().partition(g, 8)
        assert edge_balance_bias(p) < 0.15

    def test_hub_replicated_everywhere(self):
        g = star_graph(400)
        p = RandomEdgePartitioner().partition(g, 8)
        assert p.copies[0] == 8  # hub in every part
        assert (p.copies[1:] == 1).all()  # leaves never replicated


class TestDBH:
    def test_beats_random_on_powerlaw(self, g):
        rnd = replication_factor(RandomEdgePartitioner().partition(g, 16))
        dbh = replication_factor(DBHPartitioner().partition(g, 16))
        assert dbh < rnd

    def test_low_degree_endpoint_never_replicated(self):
        g = star_graph(100)
        p = DBHPartitioner().partition(g, 8)
        # leaves have degree 1 < hub's 100: each edge hashes its leaf
        assert (p.copies[1:] == 1).all()

    def test_edge_balance(self, g):
        # DBH hashes whole anchor-vertex edge groups, so its balance is
        # noisier than per-edge hashing on small graphs.
        p = DBHPartitioner().partition(g, 8)
        assert edge_balance_bias(p) < 0.5


class TestGrid:
    def test_replication_bounded_by_grid(self, g):
        p = GridPartitioner().partition(g, 16)  # 4x4 grid
        assert p.copies.max() <= 4 + 4 - 1

    def test_prime_k_rejected(self, g):
        with pytest.raises(ConfigurationError):
            GridPartitioner().partition(g, 7)

    def test_small_prime_allowed(self, g):
        p = GridPartitioner().partition(g, 3)
        assert p.edge_counts.sum() == g.num_undirected_edges

    def test_beats_random_replication_at_large_k(self, g):
        rnd = replication_factor(RandomEdgePartitioner().partition(g, 16))
        grid = replication_factor(GridPartitioner().partition(g, 16))
        assert grid < rnd


class TestHDRF:
    def test_lowest_replication(self, g):
        hdrf = replication_factor(HDRFPartitioner().partition(g, 8))
        dbh = replication_factor(DBHPartitioner().partition(g, 8))
        rnd = replication_factor(RandomEdgePartitioner().partition(g, 8))
        assert hdrf < dbh < rnd

    def test_balance_with_lambda(self, g):
        tight = HDRFPartitioner(lam=10.0).partition(g, 8)
        loose = HDRFPartitioner(lam=0.1).partition(g, 8)
        assert edge_balance_bias(tight) <= edge_balance_bias(loose) + 1e-9

    def test_large_k_table_path(self):
        g = chung_lu(300, 6.0, rng=31)
        p = HDRFPartitioner().partition(g, 80)  # k > 64: boolean-table path
        assert p.edge_counts.sum() == g.num_undirected_edges

    def test_invalid_lambda(self):
        with pytest.raises(ConfigurationError):
            HDRFPartitioner(lam=-1)


class TestEdgePartitionModel:
    def test_copies_on_ring(self):
        g = ring_graph(8)
        src, dst = canonical_edges(g)
        # all edges to part 0 → every vertex exactly 1 copy
        p = EdgePartition(g, src, dst, np.zeros(src.size, dtype=np.int32), 2)
        assert (p.copies == 1).all()

    def test_length_mismatch(self, triangle):
        src, dst = canonical_edges(triangle)
        with pytest.raises(PartitionError):
            EdgePartition(triangle, src, dst, np.zeros(1, dtype=np.int32), 2)

    def test_part_range_check(self, triangle):
        src, dst = canonical_edges(triangle)
        with pytest.raises(PartitionError):
            EdgePartition(triangle, src, dst, np.full(src.size, 9, dtype=np.int32), 2)


class TestDirectedGraphs:
    """Directed storage: every arc is its own edge (no u<v folding)."""

    @pytest.fixture(scope="class")
    def dg(self):
        from repro.graph import from_edges

        rng = np.random.default_rng(41)
        src = rng.integers(0, 200, size=1500)
        dst = rng.integers(0, 200, size=1500)
        keep = src != dst
        return from_edges(src[keep], dst[keep], 200, directed=True)

    def test_canonical_edges_count_arcs(self, dg):
        src, dst = canonical_edges(dg)
        assert src.size == dg.num_edges  # each arc its own edge

    @pytest.mark.parametrize("cls", [RandomEdgePartitioner, DBHPartitioner, HDRFPartitioner])
    def test_family_partitions_all_arcs(self, dg, cls):
        p = cls().partition(dg, 4)
        assert p.edge_parts.size == dg.num_edges
        assert p.edge_counts.sum() == dg.num_edges
        assert 0 <= p.edge_parts.min() and p.edge_parts.max() < 4
        assert replication_factor(p) >= 1.0

    def test_grid_partitions_directed(self, dg):
        p = GridPartitioner().partition(dg, 4)
        assert p.edge_parts.size == dg.num_edges
        assert p.edge_counts.sum() == dg.num_edges

    def test_determinism_on_directed(self, dg):
        a = HDRFPartitioner().partition(dg, 4).edge_parts
        b = HDRFPartitioner().partition(dg, 4).edge_parts
        np.testing.assert_array_equal(a, b)


class TestEdgelessGraphs:
    """Zero-edge graphs: the capacity guard `max(src.size, 1)` and the
    empty-copies return of replication_factor."""

    @pytest.fixture(scope="class")
    def empty(self):
        from repro.graph import from_edges

        return from_edges([], [], 12)

    @pytest.mark.parametrize(
        "cls", [RandomEdgePartitioner, DBHPartitioner, HDRFPartitioner, GridPartitioner]
    )
    def test_family_handles_edgeless(self, empty, cls):
        p = cls().partition(empty, 4)
        assert p.edge_parts.size == 0
        assert p.edge_counts.sum() == 0
        np.testing.assert_array_equal(p.copies, np.zeros(12, dtype=p.copies.dtype))

    def test_replication_factor_empty_is_zero(self, empty):
        p = RandomEdgePartitioner().partition(empty, 4)
        assert replication_factor(p) == 0.0

    def test_edge_balance_on_edgeless(self, empty):
        p = HDRFPartitioner().partition(empty, 4)
        assert edge_balance_bias(p) == 0.0
