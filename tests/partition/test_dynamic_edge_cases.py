"""Edge-case regression tests for the online partitioner.

Covers the adjacency-hygiene fix (duplicate neighbour ids and
self-loops must not inflate degree or overlap — the offline CSR builder
dedups and drops them at build time, so the online path must agree) and
count integrity under repeated add/remove churn cycles.
"""

from __future__ import annotations

import numpy as np

from repro.graph import chung_lu
from repro.partition.dynamic import DynamicPartitioner


class TestAdjacencyHygiene:
    def test_duplicate_neighbors_do_not_inflate_degree(self):
        dp = DynamicPartitioner(2)
        dp.add_vertex(0, [1, 1, 1, 2, 2])
        # two distinct neighbours, not five
        assert dp.edge_counts.sum() == 2

    def test_self_loop_does_not_count_toward_degree(self):
        dp = DynamicPartitioner(2)
        dp.add_vertex(0, [0, 1, 2])
        assert dp.edge_counts.sum() == 2

    def test_duplicates_do_not_inflate_overlap(self):
        """A part must not win the argmax on repeated copies of one
        neighbour: deduped, one neighbour in each part is a tie (broken
        toward the first part), regardless of multiplicity."""
        dirty = DynamicPartitioner(2, alpha=10.0)
        clean = DynamicPartitioner(2, alpha=10.0)
        for dp in (dirty, clean):
            # alpha is large, so the empty-adjacency arrivals spread:
            # vertex 0 → part 0, vertex 1 → part 1.
            assert dp.add_vertex(0, []) == 0
            assert dp.add_vertex(1, []) == 1
        # Vertex 2 sees part 0 twice and part 1 three times. Deduped
        # the overlap ties 1–1 and both feeds pick part 0; counting
        # multiplicity would send the dirty feed to part 1.
        assert dirty.add_vertex(2, [0, 0, 1, 1, 1]) == clean.add_vertex(2, [0, 1])

    def test_duplicated_adjacency_matches_clean_feed(self):
        """Churn test of the issue: feeding every adjacency duplicated
        (and with a self-loop added) must reproduce the clean feed's
        assignment exactly."""
        g = chung_lu(400, 8.0, rng=77)
        clean = DynamicPartitioner(4, c=0.5, avg_degree=g.avg_degree)
        dirty = DynamicPartitioner(4, c=0.5, avg_degree=g.avg_degree)
        for v in range(g.num_vertices):
            nbrs = list(g.neighbors(v))
            clean.add_vertex(v, nbrs)
            dirty.add_vertex(v, nbrs + nbrs + [v])
        vertices = range(g.num_vertices)
        assert [clean.part_of(v) for v in vertices] == [dirty.part_of(v) for v in vertices]
        assert np.array_equal(clean.edge_counts, dirty.edge_counts)


class TestChurnCycles:
    def test_add_remove_cycles_keep_counts_exact(self):
        """Repeated add/remove of the same vertex must never drift the
        per-part counters (under- or overflow)."""
        dp = DynamicPartitioner(2)
        dp.add_vertex(0, [1, 2])
        dp.add_vertex(1, [0])
        for _ in range(50):
            dp.add_vertex(5, [0, 1, 1, 5])  # dirty adjacency on purpose
            assert dp.vertex_counts.sum() == 3
            assert dp.edge_counts.sum() == 5  # 2 + 1 + deduped 2
            dp.remove_vertex(5)
            assert dp.vertex_counts.sum() == 2
            assert dp.edge_counts.sum() == 3
        assert (dp.vertex_counts >= 0).all()
        assert (dp.edge_counts >= 0).all()

    def test_full_drain_returns_to_zero(self):
        g = chung_lu(200, 6.0, rng=78)
        dp = DynamicPartitioner(4)
        for v in range(g.num_vertices):
            dp.add_vertex(v, g.neighbors(v))
        for v in range(g.num_vertices):
            dp.remove_vertex(v)
        assert dp.num_vertices == 0
        assert dp.vertex_counts.sum() == 0
        assert dp.edge_counts.sum() == 0
        # and the partitioner is reusable after a full drain
        dp.add_vertex(0, g.neighbors(0))
        assert dp.num_vertices == 1

    def test_release_matches_insertion_degree_not_current(self):
        """remove_vertex releases the degree recorded at insertion —
        duplicates in the removal-time adjacency are irrelevant because
        only the stored degree is used."""
        dp = DynamicPartitioner(2)
        p = dp.add_vertex(0, [1, 1, 2, 0])
        assert dp.edge_counts[p] == 2
        dp.remove_vertex(0)
        assert dp.edge_counts[p] == 0


class TestDynamicTelemetry:
    def test_add_remove_counters(self):
        from repro import telemetry

        telemetry.set_enabled(True)
        telemetry.reset()
        dp = DynamicPartitioner(2)
        dp.add_vertex(0, [1])
        dp.add_vertex(1, [0])
        dp.remove_vertex(0)
        snap = telemetry.registry().snapshot()
        assert snap["counters"]["partition.dynamic.adds"] == 2
        assert snap["counters"]["partition.dynamic.removes"] == 1
        assert snap["gauges"]["partition.dynamic.vertices"] == 1

    def test_disabled_mode_records_nothing(self):
        from repro import telemetry

        assert not telemetry.enabled()
        dp = DynamicPartitioner(2)
        dp.add_vertex(0, [1])
        assert telemetry.registry().metrics() == []
