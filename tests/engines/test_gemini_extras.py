"""Tests for the push/pull/adaptive execution modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import BSPCluster
from repro.engines.gemini import (
    BFS,
    ConnectedComponents,
    GeminiEngine,
    PageRank,
)
from repro.errors import ConfigurationError
from repro.graph import chung_lu, path_graph, ring_graph
from repro.partition import HashPartitioner


def run(g, program, k=4, **engine_kwargs):
    a = HashPartitioner().partition(g, k).assignment
    return GeminiEngine(BSPCluster(k), **engine_kwargs).run(g, a, program)


class TestExecutionModes:
    def test_results_mode_invariant(self):
        g = chung_lu(500, 8.0, rng=65)
        values = {}
        for mode in ("push", "pull", "adaptive"):
            values[mode] = run(g, PageRank(5), mode=mode).values
        assert np.allclose(values["push"], values["pull"])
        assert np.allclose(values["push"], values["adaptive"])

    def test_push_cheaper_for_sparse_frontier(self):
        # BFS on a long path: tiny frontier each iteration
        g = path_graph(400)
        push = run(g, BFS(source=0), k=2, mode="push")
        pull = run(g, BFS(source=0), k=2, mode="pull")
        assert push.ledger.compute_matrix.sum() < pull.ledger.compute_matrix.sum()

    def test_pull_traffic_constant_per_iteration(self):
        g = chung_lu(500, 8.0, rng=66)
        res = run(g, PageRank(4), mode="pull")
        comm = res.ledger.comm_matrix
        assert np.allclose(comm, comm[0])

    def test_adaptive_switches_modes(self):
        # CC starts dense and sparsifies → expect pull then push
        g = chung_lu(800, 8.0, rng=67)
        res = run(g, ConnectedComponents(), mode="adaptive")
        assert res.modes[0] == "pull"
        assert "push" in res.modes

    def test_adaptive_all_dense_for_pagerank(self):
        g = chung_lu(400, 8.0, rng=68)
        res = run(g, PageRank(3), mode="adaptive")
        assert res.modes == ["pull", "pull", "pull"]

    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            GeminiEngine(BSPCluster(2), mode="pushpull")

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            GeminiEngine(BSPCluster(2), dense_threshold=0.0)

    def test_modes_recorded(self):
        g = ring_graph(64)
        res = run(g, PageRank(3), k=2, mode="push")
        assert res.modes == ["push", "push", "push"]
