"""Unit tests for the networkx bridge."""

from __future__ import annotations

import networkx as nx

from repro.graph import chung_lu, from_edges
from repro.graph.convert import to_networkx


def _back(nxg, directed):
    edges = list(nxg.edges())
    return from_edges(
        [u for u, _ in edges], [v for _, v in edges], nxg.number_of_nodes(), directed=directed
    )


class TestConvert:
    def test_roundtrip_undirected(self):
        g = chung_lu(150, 6.0, rng=1)
        assert _back(to_networkx(g), directed=False) == g

    def test_roundtrip_directed(self):
        g = from_edges([0, 1, 2], [1, 2, 0], directed=True)
        nxg = to_networkx(g)
        assert isinstance(nxg, nx.DiGraph)
        assert _back(nxg, directed=True) == g

    def test_counts_match(self):
        g = chung_lu(200, 5.0, rng=2)
        nxg = to_networkx(g)
        assert nxg.number_of_nodes() == g.num_vertices
        assert nxg.number_of_edges() == g.num_undirected_edges

    def test_empty(self):
        nxg = to_networkx(from_edges([], [], 4))
        assert nxg.number_of_nodes() == 4
        assert nxg.number_of_edges() == 0
