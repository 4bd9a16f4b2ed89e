"""Unit tests for CSRGraph."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import CSRGraph, from_edges


class TestConstruction:
    def test_basic_counts(self, triangle):
        assert triangle.num_vertices == 3
        assert triangle.num_edges == 6  # symmetrised arcs
        assert triangle.num_undirected_edges == 3

    def test_directed_flag(self):
        g = from_edges([0, 1], [1, 2], directed=True)
        assert g.directed
        assert g.num_edges == 2
        assert g.num_undirected_edges == 2

    def test_empty_graph(self):
        g = CSRGraph(np.array([0]), np.array([], dtype=np.int32))
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.avg_degree == 0.0

    def test_isolated_vertices_kept(self, isolated_vertices):
        assert isolated_vertices.num_vertices == 6
        assert isolated_vertices.degree(5) == 0

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([1, 2]), np.array([0], dtype=np.int32))

    def test_indptr_must_be_monotone(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1], dtype=np.int32))

    def test_indptr_tail_must_match_indices(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 3]), np.array([0], dtype=np.int32))

    def test_indices_must_be_in_range(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 1]), np.array([5], dtype=np.int32))

    def test_arrays_are_frozen(self, triangle):
        with pytest.raises(ValueError):
            triangle.indices[0] = 0
        with pytest.raises(ValueError):
            triangle.indptr[0] = 1


class TestAccessors:
    def test_neighbors_sorted(self, k5):
        for v in range(5):
            nbrs = k5.neighbors(v)
            assert list(nbrs) == sorted(set(range(5)) - {v})

    def test_degrees_match_indptr(self, grid8x8):
        deg = grid8x8.degrees
        assert deg.sum() == grid8x8.num_edges
        # interior vertices of a grid have degree 4, corners 2
        assert deg.max() == 4
        assert deg.min() == 2

    def test_avg_degree(self, ring64):
        assert ring64.avg_degree == pytest.approx(2.0)

    def test_has_edge(self, triangle):
        assert triangle.has_edge(0, 1)
        assert triangle.has_edge(1, 0)
        assert not triangle.has_edge(0, 0)

    def test_edge_array_roundtrip(self, grid8x8):
        src, dst = grid8x8.edge_array()
        rebuilt = from_edges(src, dst, grid8x8.num_vertices, directed=True)
        assert np.array_equal(rebuilt.indptr, grid8x8.indptr)
        assert np.array_equal(rebuilt.indices, grid8x8.indices)

    def test_iter_edges(self, triangle):
        edges = set(triangle.iter_edges())
        assert edges == {(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}


class TestRowsSorted:
    def test_builders_sort_and_hand_assembly_may_not(self):
        assert from_edges([0, 0, 1], [2, 1, 2]).rows_sorted
        assert not CSRGraph(np.array([0, 0, 2]), np.array([1, 0])).rows_sorted

    def test_descents_across_row_boundaries_do_not_count(self):
        # rows [2, 3], [], [0], [] — 3 → 0 straddles an empty row
        assert CSRGraph(np.array([0, 2, 2, 3, 3]), np.array([2, 3, 0])).rows_sorted

    def test_empty_and_edgeless(self):
        assert CSRGraph(np.zeros(1, np.int64), np.empty(0, np.int32)).rows_sorted
        assert from_edges([], [], num_vertices=4).rows_sorted


class TestDerived:
    def test_equality(self, triangle):
        other = from_edges([0, 1, 2], [1, 2, 0])
        assert triangle == other
        assert triangle != from_edges([0, 1], [1, 2])

    def test_repr(self, triangle):
        assert "n=3" in repr(triangle)


class TestFromEdges:
    def test_dedup(self):
        g = from_edges([0, 0, 0], [1, 1, 1])
        assert g.num_undirected_edges == 1

    def test_self_loops_dropped(self):
        g = from_edges([0, 1], [0, 2], num_vertices=3)
        assert g.num_undirected_edges == 1
        assert not g.has_edge(0, 0)

    def test_num_vertices_override_too_small(self):
        with pytest.raises(GraphFormatError):
            from_edges([0], [5], num_vertices=3)

    def test_negative_ids_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edges([-1], [0])

    def test_length_mismatch(self):
        with pytest.raises(GraphFormatError):
            from_edges([0, 1], [1])

    def test_empty_edge_list(self):
        g = from_edges([], [], num_vertices=4)
        assert g.num_vertices == 4
        assert g.num_edges == 0
