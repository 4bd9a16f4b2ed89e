"""Unit tests for graph statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.graph import GraphSummary, chung_lu, powerlaw_exponent, ring_graph, summarize
from repro.graph.stats import gini


class TestGini:
    def test_uniform_is_zero(self):
        assert gini(np.full(100, 7.0)) == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_is_high(self):
        v = np.zeros(100)
        v[0] = 1.0
        assert gini(v) > 0.9

    def test_empty_and_zero(self):
        assert gini(np.array([])) == 0.0
        assert gini(np.zeros(5)) == 0.0

    def test_scale_invariant(self):
        v = np.array([1.0, 2.0, 3.0, 10.0])
        assert gini(v) == pytest.approx(gini(v * 100))


class TestPowerlawExponent:
    def test_recovers_exponent(self):
        rng = np.random.default_rng(0)
        # Pareto with alpha=1.5 → tail exponent 2.5. Use a dmin well
        # inside the pure power-law region so the MLE is unbiased.
        d = (rng.pareto(1.5, size=200_000) + 1) * 20
        est = powerlaw_exponent(d.astype(int), dmin=20)
        assert est == pytest.approx(2.5, abs=0.2)

    def test_insufficient_tail(self):
        assert math.isnan(powerlaw_exponent(np.array([1, 1, 1])))


class TestSummarize:
    def test_ring(self):
        s = summarize(ring_graph(10))
        assert isinstance(s, GraphSummary)
        assert s.num_vertices == 10
        assert s.max_degree == 2
        assert s.degree_gini == pytest.approx(0.0, abs=1e-9)

    def test_powerlaw_summary(self):
        g = chung_lu(3000, 14.0, 2.2, rng=1)
        s = summarize(g)
        assert s.degree_gini > 0.3
        assert s.avg_degree == pytest.approx(g.avg_degree)
        assert "n=" in str(s)
