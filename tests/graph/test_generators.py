"""Unit tests for the synthetic graph generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph import (
    barabasi_albert,
    chung_lu,
    complete_graph,
    erdos_renyi,
    from_edges,
    grid_graph,
    path_graph,
    powerlaw_degrees,
    ring_graph,
    rmat,
    social_edge_batches,
    social_graph,
    star_graph,
)
from repro.graph.stats import gini


class TestPowerlawDegrees:
    def test_mean_matches_target(self):
        w = powerlaw_degrees(5000, 20.0, 2.3, rng=1)
        assert w.mean() == pytest.approx(20.0, rel=0.01)

    def test_heavier_tail_for_smaller_exponent(self):
        w_heavy = powerlaw_degrees(5000, 20.0, 2.1, rng=1)
        w_light = powerlaw_degrees(5000, 20.0, 3.0, rng=1)
        assert w_heavy.max() > w_light.max()

    def test_invalid_exponent(self):
        with pytest.raises(ConfigurationError):
            powerlaw_degrees(100, 5.0, exponent=0.9)

    def test_order_desc_monotone(self):
        w = powerlaw_degrees(100, 5.0, order="desc", rng=1)
        assert (np.diff(w) <= 0).all()

    def test_order_asc_monotone(self):
        w = powerlaw_degrees(100, 5.0, order="asc", rng=1)
        assert (np.diff(w) >= 0).all()

    def test_order_windows_correlates_with_rank(self):
        w = powerlaw_degrees(5000, 20.0, order="windows", rng=1)
        # Windows-shuffle keeps the global descending trend.
        first, last = w[:500].mean(), w[-500:].mean()
        assert first > 2 * last

    def test_unknown_order(self):
        with pytest.raises(ConfigurationError):
            powerlaw_degrees(100, 5.0, order="zigzag")

    def test_max_degree_cap(self):
        w = powerlaw_degrees(1000, 10.0, 2.05, max_degree=50, rng=1)
        assert w.max() <= 50.0


class TestChungLu:
    def test_size_and_degree(self):
        g = chung_lu(3000, 16.0, 2.4, rng=2)
        assert g.num_vertices == 3000
        assert g.avg_degree == pytest.approx(16.0, rel=0.2)

    def test_skewed_degrees(self):
        g = chung_lu(3000, 16.0, 2.2, rng=2)
        assert gini(g.degrees) > 0.3

    def test_deterministic(self):
        assert chung_lu(500, 8.0, rng=5) == chung_lu(500, 8.0, rng=5)

    def test_weights_length_check(self):
        with pytest.raises(ConfigurationError):
            chung_lu(100, 5.0, weights=np.ones(50))

    @pytest.mark.filterwarnings("error")  # no "invalid value" warning before the error
    @pytest.mark.parametrize("weights", [
        [1.0, -1.0, 2.0, 3.0],
        [0.0, 0.0, 0.0, 0.0],
        [1.0, np.inf, 2.0, 3.0],
        [1.0, np.nan, 2.0, 3.0],
    ], ids=["negative", "all-zero", "inf", "nan"])
    def test_bad_weights_are_a_configuration_error(self, weights):
        with pytest.raises(ConfigurationError, match="weights"):
            chung_lu(4, 2.0, weights=weights)


class TestSocialGraph:
    def test_locality_reduces_chunk_cut(self):
        from repro.partition import ChunkVPartitioner
        from repro.partition.metrics import edge_cut_ratio

        g_local = social_graph(3000, 16.0, locality=0.5, rng=3)
        g_global = social_graph(3000, 16.0, locality=0.0, rng=3)
        p = ChunkVPartitioner()
        cut_local = edge_cut_ratio(g_local, p.partition(g_local, 8).assignment.parts)
        cut_global = edge_cut_ratio(g_global, p.partition(g_global, 8).assignment.parts)
        assert cut_local < cut_global - 0.1

    def test_hubs_cluster_in_id_space(self):
        g = social_graph(4000, 16.0, 2.1, rng=3)
        deg = g.degrees
        # Earliest eighth of ids should hold far more than 1/8 of arcs.
        assert deg[: 500].sum() > 2 * g.num_edges / 8

    def test_invalid_locality(self):
        with pytest.raises(ConfigurationError):
            social_graph(100, 5.0, locality=1.5)

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            social_graph(100, 5.0, window_frac=0.0)

    @pytest.mark.parametrize("n, degree, exponent, locality",
                             [(500, 5.0, 2.5, 0.2), (2000, 29.99, 2.4, 0.34)])
    def test_is_the_one_batch_case_of_the_edge_stream(self, n, degree, exponent, locality):
        (batch,) = social_edge_batches(n, degree, exponent, locality=locality, rng=3,
                                       batch_size=n * int(degree))
        assert from_edges(*batch, n) == social_graph(n, degree, exponent,
                                                     locality=locality, rng=3)

    def test_no_edges_to_draw(self):
        # m = round(3 · 0.1 / 2 · 1.08) = 0: no batch, an edgeless graph
        assert list(social_edge_batches(3, 0.1, rng=1)) == []
        g = social_graph(3, 0.1, rng=1)
        assert (g.num_vertices, g.num_edges) == (3, 0)


class TestRmat:
    def test_size(self):
        g = rmat(10, edge_factor=8, rng=4)
        assert g.num_vertices == 1024
        assert g.num_edges > 0

    def test_skew(self):
        g = rmat(11, edge_factor=8, rng=4)
        assert gini(g.degrees) > 0.25

    def test_invalid_probs(self):
        with pytest.raises(ConfigurationError):
            rmat(5, a=0.6, b=0.3, c=0.3)


class TestBarabasiAlbert:
    def test_connected_and_sized(self):
        g = barabasi_albert(500, m=3, rng=5)
        assert g.num_vertices == 500
        assert (g.degrees > 0).all()

    def test_m_must_be_smaller_than_n(self):
        with pytest.raises(ConfigurationError):
            barabasi_albert(3, m=5)


class TestErdosRenyi:
    def test_degree_concentrated(self):
        g = erdos_renyi(2000, 10.0, rng=6)
        assert g.avg_degree == pytest.approx(10.0, rel=0.15)
        assert gini(g.degrees) < 0.25  # near-uniform degrees


class TestFixtures:
    def test_ring_degrees(self):
        g = ring_graph(10)
        assert (g.degrees == 2).all()

    def test_path_endpoints(self):
        g = path_graph(5)
        assert g.degree(0) == 1
        assert g.degree(4) == 1
        assert g.degree(2) == 2

    def test_star_center(self):
        g = star_graph(7)
        assert g.degree(0) == 7
        assert (g.degrees[1:] == 1).all()

    def test_grid_count(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        assert g.num_undirected_edges == 3 * 3 + 2 * 4  # horiz + vert

    def test_complete(self):
        g = complete_graph(6)
        assert g.num_undirected_edges == 15
        assert (g.degrees == 5).all()
