"""Property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import from_edges
from repro.graph.stream import vertex_stream
from repro.partition import (
    BPartPartitioner,
    ChunkEPartitioner,
    ChunkVPartitioner,
    FennelPartitioner,
    HashPartitioner,
    bias,
    edge_cut_ratio,
    jains_fairness,
)
from repro.partition.combine import pair_by_vertex_count
from repro.utils.rng import hash_u64, splitmix64

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def edge_lists(draw, max_vertices=60, max_edges=200):
    """Random graphs as (n, src, dst)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    return n, src, dst


@st.composite
def graphs(draw):
    n, src, dst = draw(edge_lists())
    return from_edges(src, dst, n)


class TestGraphProperties:
    @given(edge_lists())
    @settings(max_examples=60, **COMMON)
    def test_csr_invariants(self, data):
        n, src, dst = data
        g = from_edges(src, dst, n)
        assert g.indptr[0] == 0
        assert g.indptr[-1] == g.indices.size
        assert (np.diff(g.indptr) >= 0).all()
        if g.num_edges:
            assert 0 <= g.indices.min() and g.indices.max() < n
        # symmetrised: every arc has a reverse
        for u, v in list(g.iter_edges())[:50]:
            assert g.has_edge(v, u)

    @given(edge_lists())
    @settings(max_examples=40, **COMMON)
    def test_degree_sum_is_arc_count(self, data):
        n, src, dst = data
        g = from_edges(src, dst, n)
        assert g.degrees.sum() == g.num_edges

    @given(graphs(), st.sampled_from(["natural", "random", "bfs", "dfs", "degree"]))
    @settings(max_examples=40, **COMMON)
    def test_streams_are_permutations(self, g, order):
        s = vertex_stream(g, order, rng=0)
        assert np.array_equal(np.sort(s), np.arange(g.num_vertices))


PARTITIONERS = [
    ChunkVPartitioner,
    ChunkEPartitioner,
    HashPartitioner,
    FennelPartitioner,
    lambda: BPartPartitioner(seed=0),
]


class TestPartitionProperties:
    @given(graphs(), st.integers(1, 5), st.sampled_from(range(len(PARTITIONERS))))
    @settings(max_examples=60, **COMMON)
    def test_totality_and_conservation(self, g, k, pidx):
        if k > g.num_vertices:
            k = g.num_vertices
        a = PARTITIONERS[pidx]().partition(g, k).assignment
        # totality: every vertex in exactly one part
        assert a.parts.size == g.num_vertices
        assert a.parts.min() >= 0 and a.parts.max() < k
        # conservation of both dimensions
        assert a.vertex_counts.sum() == g.num_vertices
        assert a.edge_counts.sum() == g.num_edges

    @given(graphs(), st.integers(2, 5))
    @settings(max_examples=30, **COMMON)
    def test_cut_ratio_bounds(self, g, k):
        k = min(k, g.num_vertices)
        a = HashPartitioner().partition(g, k).assignment
        assert 0.0 <= edge_cut_ratio(g, a.parts) <= 1.0

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=40))
    @settings(max_examples=100, **COMMON)
    def test_bias_and_fairness_bounds(self, counts):
        assert bias(counts) >= 0.0
        f = jains_fairness(counts)
        assert 1 / len(counts) - 1e-9 <= f <= 1.0 + 1e-9

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=33))
    @settings(max_examples=100, **COMMON)
    def test_pairing_is_total_and_conserves(self, counts):
        vc = np.array(counts)
        plan = pair_by_vertex_count(vc)
        # every piece mapped to a merged id in range
        assert plan.mapping.size == vc.size
        assert plan.mapping.min() >= 0 and plan.mapping.max() < plan.num_merged
        merged = np.bincount(plan.mapping, weights=vc, minlength=plan.num_merged)
        assert merged.sum() == vc.sum()
        # each merged part gets at most 2 pieces
        assert np.bincount(plan.mapping).max() <= 2

    @given(st.lists(st.integers(2, 1000), min_size=2, max_size=16).filter(lambda c: len(c) % 2 == 0))
    @settings(max_examples=60, **COMMON)
    def test_minmax_pairing_optimal_max_pair_sum(self, counts):
        """Sorted min–max pairing minimises the largest pair sum (the
        classic greedy-pairing optimality result)."""
        vc = np.array(counts)
        plan = pair_by_vertex_count(vc)
        merged = np.bincount(plan.mapping, weights=vc, minlength=plan.num_merged)
        if vc.size <= 8:  # brute-force all pairings for small inputs
            best = np.inf
            idx = list(range(vc.size))

            def pairings(rest):
                if not rest:
                    yield []
                    return
                first = rest[0]
                for j in range(1, len(rest)):
                    for tail in pairings(rest[1:j] + rest[j + 1 :]):
                        yield [(first, rest[j])] + tail

            for p in pairings(idx):
                best = min(best, max(vc[a] + vc[b] for a, b in p))
            assert merged.max() == pytest.approx(best)
        else:
            assert merged.max() <= 2 * vc.max()


class TestHashProperties:
    @given(st.lists(st.integers(0, 2**62), min_size=1, max_size=100), st.integers(0, 2**31))
    @settings(max_examples=60, **COMMON)
    def test_hash_deterministic(self, values, seed):
        v = np.array(values, dtype=np.uint64)
        assert np.array_equal(hash_u64(v, seed), hash_u64(v, seed))

    @given(st.integers(0, 2**62))
    @settings(max_examples=100, **COMMON)
    def test_splitmix_is_injective_locally(self, x):
        a = splitmix64(np.uint64(x))
        b = splitmix64(np.uint64(x + 1))
        assert a != b


class TestWalkProperties:
    @given(graphs(), st.integers(1, 6))
    @settings(max_examples=25, **COMMON)
    def test_walks_follow_edges(self, g, steps):
        from repro.cluster import BSPCluster
        from repro.engines.knightking import DeepWalk, WalkEngine

        k = min(2, g.num_vertices)
        a = HashPartitioner().partition(g, k).assignment
        engine = WalkEngine(BSPCluster(k), seed=0, record_paths=True)
        res = engine.run(g, a, DeepWalk(), walkers_per_vertex=1, max_steps=steps)
        for row in res.paths:
            trace = row[row >= 0]
            for u, v in zip(trace[:-1], trace[1:]):
                assert g.has_edge(int(u), int(v))

    @given(graphs())
    @settings(max_examples=25, **COMMON)
    def test_ledger_waits_nonnegative(self, g):
        from repro.cluster import BSPCluster
        from repro.engines.gemini import GeminiEngine, PageRank

        k = min(3, g.num_vertices)
        a = HashPartitioner().partition(g, k).assignment
        res = GeminiEngine(BSPCluster(k)).run(g, a, PageRank(3))
        assert (res.ledger.wait_matrix >= -1e-15).all()
        assert res.values.sum() == pytest.approx(1.0)
