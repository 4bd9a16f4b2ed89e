"""Tests for the online / churn partitioner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph import chung_lu, social_graph
from repro.partition import PartitionAssignment, edge_cut_ratio
from repro.partition.dynamic import DynamicPartitioner


def feed_graph(dp: DynamicPartitioner, g) -> None:
    for v in range(g.num_vertices):
        dp.add_vertex(v, g.neighbors(v))


def parts_of(dp: DynamicPartitioner, g) -> np.ndarray:
    """Part-id vector aligned with ``g``'s vertex ids."""
    return np.array([dp.part_of(v) for v in range(g.num_vertices)], dtype=np.int32)


class TestOnlineIngestion:
    def test_quality_matches_streaming_with_fixed_alpha(self):
        """Capacity-planning mode runs the same scoring law as the
        offline streaming pass. A single floating-point tie-break can
        cascade into different (equally valid) assignments, so the
        equivalence claim is about *quality*: the balance profile and
        cut ratio must match the offline pass closely."""
        from repro.partition._streamcore import default_alpha, stream_partition
        from repro.partition.bpart import bpart_vertex_weights

        g = chung_lu(800, 10.0, rng=140)
        alpha = default_alpha(g, 4)
        offline = stream_partition(
            g, 4, vertex_weights=bpart_vertex_weights(g, 0.5), alpha=alpha
        )
        dp = DynamicPartitioner(
            4,
            c=0.5,
            alpha=alpha,
            avg_degree=g.avg_degree,
            expected_vertices=g.num_vertices,
        )
        feed_graph(dp, g)
        online = parts_of(dp, g)
        assert np.allclose(
            np.sort(dp.vertex_counts),
            np.sort(np.bincount(offline, minlength=4)),
            atol=g.num_vertices * 0.03,
        )
        cut_on = edge_cut_ratio(g, online)
        cut_off = edge_cut_ratio(g, offline)
        assert abs(cut_on - cut_off) < 0.05

    def test_balance_maintained_online(self):
        g = social_graph(3000, 14.0, 2.2, rng=141)
        dp = DynamicPartitioner(8)
        feed_graph(dp, g)
        vb, eb = dp.balance()
        assert vb < 0.25
        assert eb < 0.25

    def test_counts_match_graph(self):
        g = chung_lu(500, 8.0, rng=142)
        dp = DynamicPartitioner(4)
        feed_graph(dp, g)
        assert dp.vertex_counts.sum() == g.num_vertices
        assert dp.edge_counts.sum() == g.num_edges

    def test_assignment_is_valid_partition(self):
        g = chung_lu(400, 8.0, rng=143)
        dp = DynamicPartitioner(4)
        feed_graph(dp, g)
        a = PartitionAssignment(g, parts_of(dp, g), 4)
        assert 0 <= edge_cut_ratio(g, a.parts) <= 1

    def test_duplicate_add_rejected(self):
        dp = DynamicPartitioner(2)
        dp.add_vertex(0, [])
        with pytest.raises(PartitionError):
            dp.add_vertex(0, [])

    def test_contains_and_part_of(self):
        dp = DynamicPartitioner(2)
        p = dp.add_vertex(7, [])
        assert 7 in dp
        assert dp.part_of(7) == p
        with pytest.raises(PartitionError):
            dp.part_of(8)


class TestChurn:
    def test_remove_releases_load(self):
        dp = DynamicPartitioner(2)
        p = dp.add_vertex(0, [1, 2, 3])
        assert dp.vertex_counts[p] == 1
        assert dp.edge_counts[p] == 3
        assert dp.remove_vertex(0) == p
        assert dp.vertex_counts.sum() == 0
        assert dp.edge_counts.sum() == 0

    def test_remove_absent_rejected(self):
        dp = DynamicPartitioner(2)
        with pytest.raises(PartitionError):
            dp.remove_vertex(4)

    def test_balance_survives_churn(self):
        g = social_graph(2000, 12.0, rng=144)
        dp = DynamicPartitioner(4)
        feed_graph(dp, g)
        rng = np.random.default_rng(145)
        # churn 30% of vertices: remove then re-add
        victims = rng.choice(g.num_vertices, size=600, replace=False)
        for v in victims:
            dp.remove_vertex(int(v))
        for v in victims:
            dp.add_vertex(int(v), g.neighbors(int(v)))
        vb, eb = dp.balance()
        assert vb < 0.3
        assert eb < 0.3
        assert dp.num_vertices == g.num_vertices

    def test_empty_balance(self):
        dp = DynamicPartitioner(4)
        assert dp.balance() == (0.0, 0.0)

    def test_repr(self):
        dp = DynamicPartitioner(2)
        dp.add_vertex(0, [])
        assert "k=2" in repr(dp)
