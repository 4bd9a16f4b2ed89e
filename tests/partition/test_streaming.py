"""Unit tests for the streaming partitioners: Chunk-V/E, Hash, Fennel, LDG."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, PartitionError
from repro.graph import social_graph
from repro.partition import (
    ChunkEPartitioner,
    ChunkVPartitioner,
    FennelPartitioner,
    HashPartitioner,
    LDGPartitioner,
    bias,
    edge_cut_ratio,
    get_partitioner,
    jains_fairness,
)
from repro.partition._streamcore import stream_partition
from repro.partition.dynamic import DynamicPartitioner

ALL_STREAMING = [ChunkVPartitioner, ChunkEPartitioner, HashPartitioner, FennelPartitioner, LDGPartitioner]


@pytest.mark.parametrize("cls", ALL_STREAMING)
class TestCommonContract:
    def test_every_vertex_assigned(self, powerlaw_small, cls):
        a = cls().partition(powerlaw_small, 7).assignment
        assert a.parts.size == powerlaw_small.num_vertices
        assert a.parts.min() >= 0 and a.parts.max() < 7

    def test_counts_conserved(self, powerlaw_small, cls):
        a = cls().partition(powerlaw_small, 5).assignment
        assert a.vertex_counts.sum() == powerlaw_small.num_vertices
        assert a.edge_counts.sum() == powerlaw_small.num_edges

    def test_single_part(self, powerlaw_small, cls):
        a = cls().partition(powerlaw_small, 1).assignment
        assert (a.parts == 0).all()

    def test_too_many_parts(self, triangle, cls):
        with pytest.raises(PartitionError):
            cls().partition(triangle, 10)

    def test_nonpositive_parts(self, triangle, cls):
        with pytest.raises(ConfigurationError):
            cls().partition(triangle, 0)

    def test_deterministic(self, powerlaw_small, cls):
        a = cls().partition(powerlaw_small, 4).assignment
        b = cls().partition(powerlaw_small, 4).assignment
        assert np.array_equal(a.parts, b.parts)


class TestChunkV:
    def test_vertex_balance_exact(self, powerlaw_small):
        a = ChunkVPartitioner().partition(powerlaw_small, 8).assignment
        assert bias(a.vertex_counts) < 0.01

    def test_contiguous_ranges(self, ring64):
        a = ChunkVPartitioner().partition(ring64, 4).assignment
        # natural order → contiguous id blocks → parts non-decreasing
        assert (np.diff(a.parts) >= 0).all()

    def test_ring_cut_is_minimal(self, ring64):
        a = ChunkVPartitioner().partition(ring64, 4).assignment
        assert edge_cut_ratio(ring64, a.parts) == pytest.approx(8 / 128)

    def test_edges_imbalanced_on_skewed_graph(self):
        g = social_graph(3000, 16.0, 2.1, rng=1)
        a = ChunkVPartitioner().partition(g, 8).assignment
        assert bias(a.edge_counts) > 0.5  # the Limitation-#1 phenomenon


class TestChunkE:
    def test_edge_balance(self, powerlaw_small):
        a = ChunkEPartitioner().partition(powerlaw_small, 8).assignment
        assert bias(a.edge_counts) < 0.25

    def test_vertices_imbalanced_on_skewed_graph(self):
        g = social_graph(3000, 16.0, 2.1, rng=1)
        a = ChunkEPartitioner().partition(g, 8).assignment
        assert bias(a.vertex_counts) > 0.5

    def test_edgeless_graph_falls_back_to_vertices(self):
        from repro.graph import from_edges

        g = from_edges([], [], num_vertices=12)
        a = ChunkEPartitioner().partition(g, 3).assignment
        assert list(a.vertex_counts) == [4, 4, 4]


class TestHash:
    def test_two_dimensional_balance(self, powerlaw_small):
        a = HashPartitioner().partition(powerlaw_small, 8).assignment
        assert jains_fairness(a.vertex_counts) > 0.98
        assert jains_fairness(a.edge_counts) > 0.95

    def test_cut_near_k_minus_1_over_k(self, powerlaw_small):
        a = HashPartitioner().partition(powerlaw_small, 8).assignment
        assert edge_cut_ratio(powerlaw_small, a.parts) == pytest.approx(7 / 8, abs=0.02)

    def test_seed_changes_assignment(self, powerlaw_small):
        a = HashPartitioner(seed=0).partition(powerlaw_small, 4).assignment
        b = HashPartitioner(seed=1).partition(powerlaw_small, 4).assignment
        assert not np.array_equal(a.parts, b.parts)

    def test_stable_across_processes(self, triangle):
        # splitmix64 is fixed; pin the exact assignment for seed 0, k=2.
        a = HashPartitioner(seed=0).partition(triangle, 2).assignment
        b = HashPartitioner(seed=0).partition(triangle, 2).assignment
        assert np.array_equal(a.parts, b.parts)


class TestFennel:
    def test_vertex_balance(self, powerlaw_small):
        a = FennelPartitioner().partition(powerlaw_small, 8).assignment
        assert bias(a.vertex_counts) < 0.15  # bounded by the 1.1 slack

    def test_cut_better_than_hash(self):
        g = social_graph(3000, 16.0, locality=0.3, rng=2)
        fennel = FennelPartitioner().partition(g, 8).assignment
        hash_a = HashPartitioner().partition(g, 8).assignment
        assert edge_cut_ratio(g, fennel.parts) < edge_cut_ratio(g, hash_a.parts) - 0.05

    def test_capacity_never_exceeded(self, powerlaw_small):
        a = FennelPartitioner().partition(powerlaw_small, 8).assignment
        cap = 1.1 * powerlaw_small.num_vertices / 8
        assert a.vertex_counts.max() <= cap + 1

    def test_random_order_still_balanced(self, powerlaw_small):
        a = FennelPartitioner(order="random", seed=3).partition(powerlaw_small, 8).assignment
        assert bias(a.vertex_counts) < 0.15

    def test_metadata_contains_alpha(self, powerlaw_small):
        res = FennelPartitioner().partition(powerlaw_small, 4)
        assert res.metadata["alpha"] > 0

    def test_edgeless_graph_round_robins(self):
        # m = 0 used to zero out alpha: no balance penalty, every vertex
        # in part 0. The default_alpha guard keeps the penalty positive,
        # which with no overlap signal degenerates to round-robin.
        from repro.graph import from_edges

        g = from_edges([], [], num_vertices=12)
        a = FennelPartitioner().partition(g, 3).assignment
        assert list(a.vertex_counts) == [4, 4, 4]


class TestGammaAtLeastOne:
    """γ < 1 makes a zero load's penalty infinite, and the kernels used to
    disagree about it: Fennel raised a part-id error, BPart a raw
    ``bincount`` ValueError, ``buffered`` wrote part −1 where ``scalar``
    wrote 0, and a negative γ partitioned silently. Fennel and BPart take
    γ = 1.5 from ``stream_partition``'s default; the entry points that
    take a γ check it."""

    ENTRY_POINTS = {
        "dynamic": lambda g, gamma: DynamicPartitioner(4, gamma=gamma),
        "stream": lambda g, gamma: stream_partition(
            g, 4, vertex_weights=np.ones(g.num_vertices), alpha=0.5, gamma=gamma
        ),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_gamma_one_is_accepted(self, powerlaw_small, entry):
        self.ENTRY_POINTS[entry](powerlaw_small, 1.0)

    @pytest.mark.parametrize("gamma", [0.999, 0.5, 0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_gamma_below_one_is_rejected(self, powerlaw_small, entry, gamma):
        with pytest.raises(ConfigurationError, match="gamma"):
            self.ENTRY_POINTS[entry](powerlaw_small, gamma)


class TestLDG:
    def test_vertex_balance(self, powerlaw_small):
        a = LDGPartitioner().partition(powerlaw_small, 8).assignment
        assert bias(a.vertex_counts) < 0.15

    def test_cut_better_than_hash(self):
        g = social_graph(3000, 16.0, locality=0.3, rng=2)
        ldg = LDGPartitioner().partition(g, 8).assignment
        hash_a = HashPartitioner().partition(g, 8).assignment
        assert edge_cut_ratio(g, ldg.parts) < edge_cut_ratio(g, hash_a.parts)


class TestRegistry:
    @pytest.mark.parametrize(
        "name", ["chunk-v", "chunk-e", "hash", "fennel", "ldg", "bpart", "multilevel", "gd"]
    )
    def test_lookup(self, name):
        assert get_partitioner(name).name == name

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            get_partitioner("metis")

    def test_case_insensitive(self):
        assert get_partitioner("BPart").name == "bpart"
