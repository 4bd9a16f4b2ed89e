"""Unit tests for balance/cut metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph import from_edges
from repro.partition import (
    PartitionAssignment,
    balance_report,
    bias,
    connectivity_matrix,
    edge_cut_ratio,
    jains_fairness,
    part_edge_counts,
    part_vertex_counts,
)


class TestBias:
    def test_balanced_is_zero(self):
        assert bias([5, 5, 5, 5]) == 0.0

    def test_known_value(self):
        # max 9, mean 3 → (9-3)/3 = 2
        assert bias([1, 2, 9, 0]) == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(PartitionError):
            bias([])

    def test_all_zero(self):
        assert bias([0, 0]) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert bias(rng.random(8)) >= 0


class TestFairness:
    def test_perfectly_fair(self):
        assert jains_fairness([3, 3, 3]) == pytest.approx(1.0)

    def test_completely_unfair(self):
        assert jains_fairness([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.random(16)
            f = jains_fairness(x)
            assert 1 / 16 <= f <= 1.0 + 1e-12

    def test_all_zero_is_fair(self):
        assert jains_fairness([0, 0, 0]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(PartitionError):
            jains_fairness([])


class TestCounts:
    def test_vertex_counts(self):
        parts = np.array([0, 1, 1, 2])
        assert list(part_vertex_counts(parts, 4)) == [1, 2, 1, 0]

    def test_edge_counts_sum_to_arcs(self, powerlaw_small):
        parts = np.arange(powerlaw_small.num_vertices) % 4
        ec = part_edge_counts(powerlaw_small, parts, 4)
        assert ec.sum() == powerlaw_small.num_edges


class TestEdgeCut:
    def test_no_cut_single_part(self, ring64):
        assert edge_cut_ratio(ring64, np.zeros(64, dtype=int)) == 0.0

    def test_ring_halves(self, ring64):
        parts = (np.arange(64) >= 32).astype(int)
        # contiguous halves of a ring cut exactly 2 of 64 edges
        assert edge_cut_ratio(ring64, parts) == pytest.approx(2 / 64)

    def test_alternating_ring_cuts_everything(self, ring64):
        parts = np.arange(64) % 2
        assert edge_cut_ratio(ring64, parts) == 1.0

    def test_empty_graph(self):
        g = from_edges([], [], num_vertices=3)
        assert edge_cut_ratio(g, np.zeros(3, dtype=int)) == 0.0

    def test_length_check(self, ring64):
        with pytest.raises(PartitionError):
            edge_cut_ratio(ring64, np.zeros(3, dtype=int))


class TestConnectivity:
    def test_matrix_sums_to_arcs(self, powerlaw_small):
        parts = np.arange(powerlaw_small.num_vertices) % 4
        m = connectivity_matrix(powerlaw_small, parts, 4)
        assert m.sum() == powerlaw_small.num_edges

    def test_symmetric_for_undirected(self, powerlaw_small):
        parts = np.arange(powerlaw_small.num_vertices) % 4
        m = connectivity_matrix(powerlaw_small, parts, 4)
        assert np.array_equal(m, m.T)

    def test_diagonal_counts_internal(self, ring64):
        parts = (np.arange(64) >= 32).astype(int)
        m = connectivity_matrix(ring64, parts, 2)
        assert m[0, 1] == 2  # two cut edges, one arc each direction
        assert m[0, 0] + m[1, 1] + m[0, 1] + m[1, 0] == ring64.num_edges


class TestBalanceReport:
    def test_consistency(self, powerlaw_small):
        parts = np.arange(powerlaw_small.num_vertices) % 8
        a = PartitionAssignment(powerlaw_small, parts, 8)
        rep = balance_report(a)
        assert rep.num_parts == 8
        assert rep.vertex_bias == pytest.approx(bias(a.vertex_counts))
        assert rep.edge_fairness == pytest.approx(jains_fairness(a.edge_counts))
        assert 0 <= rep.cut_ratio <= 1
        assert "bias(V)" in str(rep)


class TestAssignmentValidation:
    """Bad assignments must raise PartitionError with the offending
    range — not an opaque bincount ValueError or a mis-shaped matrix."""

    def test_unassigned_vertex_counts(self):
        with pytest.raises(PartitionError, match="negative"):
            part_vertex_counts(np.array([0, 1, -1, 2]), 4)

    def test_out_of_range_vertex_counts(self):
        with pytest.raises(PartitionError, match="num_parts=4"):
            part_vertex_counts(np.array([0, 1, 7, 2]), 4)

    def test_unassigned_edge_counts(self, powerlaw_small):
        parts = np.arange(powerlaw_small.num_vertices) % 4
        parts[0] = -1
        with pytest.raises(PartitionError, match="negative"):
            part_edge_counts(powerlaw_small, parts, 4)

    def test_out_of_range_edge_counts(self, powerlaw_small):
        parts = np.arange(powerlaw_small.num_vertices) % 4
        parts[0] = 4
        with pytest.raises(PartitionError, match="part id 4"):
            part_edge_counts(powerlaw_small, parts, 4)

    def test_connectivity_matrix_rejects_out_of_range(self, powerlaw_small):
        """Pre-validation, an id >= num_parts silently widened the flat
        bincount and reshape produced garbage (or raised ValueError)."""
        parts = np.arange(powerlaw_small.num_vertices) % 4
        parts[0] = 9
        with pytest.raises(PartitionError, match="part id 9"):
            connectivity_matrix(powerlaw_small, parts, 4)

    def test_connectivity_matrix_rejects_unassigned(self, powerlaw_small):
        parts = np.arange(powerlaw_small.num_vertices) % 4
        parts[0] = -1
        with pytest.raises(PartitionError, match="negative"):
            connectivity_matrix(powerlaw_small, parts, 4)

    def test_edge_cut_rejects_unassigned(self, ring64):
        parts = np.zeros(64, dtype=int)
        parts[5] = -1
        with pytest.raises(PartitionError, match="negative"):
            edge_cut_ratio(ring64, parts)

    def test_valid_assignment_unaffected(self, powerlaw_small):
        parts = np.arange(powerlaw_small.num_vertices) % 4
        assert part_vertex_counts(parts, 4).sum() == powerlaw_small.num_vertices
        assert connectivity_matrix(powerlaw_small, parts, 4).shape == (4, 4)

    def test_empty_assignment_ok(self):
        assert part_vertex_counts(np.array([], dtype=int), 3).tolist() == [0, 0, 0]


class TestAdjustedRandIndex:
    def test_identical_labelings(self):
        from repro.partition import adjusted_rand_index

        labels = np.array([0, 0, 1, 1, 2, 2])
        assert adjusted_rand_index(labels, labels) == 1.0

    def test_permutation_invariant(self):
        from repro.partition import adjusted_rand_index

        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([2, 2, 0, 0, 1, 1])  # same partition, renamed
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_random_labels_near_zero(self):
        from repro.partition import adjusted_rand_index

        rng = np.random.default_rng(5)
        a = rng.integers(0, 4, size=5000)
        b = rng.integers(0, 4, size=5000)
        assert abs(adjusted_rand_index(a, b)) < 0.02

    def test_known_value(self):
        from repro.partition import adjusted_rand_index

        # Hubert & Arabie worked example family: one item swapped
        # between otherwise identical 2-cluster labelings.
        a = [0, 0, 0, 1, 1, 1]
        b = [0, 0, 1, 1, 1, 1]
        val = adjusted_rand_index(a, b)
        assert 0.0 < val < 1.0
        assert val == pytest.approx(adjusted_rand_index(b, a))

    def test_degenerate_single_cluster(self):
        from repro.partition import adjusted_rand_index

        assert adjusted_rand_index([0, 0, 0], [1, 1, 1]) == 1.0

    def test_all_singletons_vs_one_cluster(self):
        from repro.partition import adjusted_rand_index

        # expected == max index only when BOTH are degenerate; here the
        # chance-corrected agreement is 0.
        assert adjusted_rand_index([0, 1, 2, 3], [0, 0, 0, 0]) == pytest.approx(0.0)

    def test_length_mismatch_raises(self):
        from repro.partition import adjusted_rand_index

        with pytest.raises(PartitionError):
            adjusted_rand_index([0, 1], [0, 1, 2])

    def test_empty_raises(self):
        from repro.partition import adjusted_rand_index

        with pytest.raises(PartitionError):
            adjusted_rand_index([], [])

    def test_non_contiguous_label_ids(self):
        from repro.partition import adjusted_rand_index

        a = np.array([10, 10, 99, 99])
        b = np.array([-5, -5, 7, 7])
        assert adjusted_rand_index(a, b) == 1.0
