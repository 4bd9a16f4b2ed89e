"""Unit tests for the Gemini-like engine and its vertex programs."""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cluster import BSPCluster
from repro.cluster.faults import FaultPlan
from repro.engines.gemini import (
    BFS,
    ConnectedComponents,
    GeminiEngine,
    PageRank,
    neighbor_min,
    neighbor_sum,
)
from repro.engines.gemini.vertex_program import VertexProgram
from repro.errors import SimulationError
from repro.graph import CSRGraph, chung_lu, from_edges, spill_csr, twitter_like
from repro.graph.convert import to_networkx
from repro.partition import HashPartitioner, PartitionAssignment, get_partitioner


def make_assignment(g, k=4, seed=0):
    return HashPartitioner(seed=seed).partition(g, k).assignment


class TestGatherPrimitives:
    def test_neighbor_sum_ring(self, ring64):
        values = np.arange(64, dtype=float)
        s = neighbor_sum(ring64, values)
        # neighbours of v are v±1 mod 64
        expected = np.array([(v - 1) % 64 + (v + 1) % 64 for v in range(64)], dtype=float)
        assert np.allclose(s, expected)

    def test_neighbor_sum_isolated_default(self, isolated_vertices):
        s = neighbor_sum(isolated_vertices, np.ones(6), default=-7.0)
        assert s[5] == -7.0

    def test_neighbor_min(self, path10):
        values = np.arange(10, dtype=float)
        m = neighbor_min(path10, values)
        assert m[0] == 1  # only neighbour is 1
        assert m[5] == 4  # min(4, 6)

    def test_neighbor_min_empty_graph(self):
        g = from_edges([], [], num_vertices=3)
        m = neighbor_min(g, np.ones(3), default=np.inf)
        assert np.isinf(m).all()


class TestPageRank:
    def test_matches_networkx(self, powerlaw_small):
        a = make_assignment(powerlaw_small)
        engine = GeminiEngine(BSPCluster(4))
        res = engine.run(powerlaw_small, a, PageRank(iterations=80))
        nx_pr = nx.pagerank(to_networkx(powerlaw_small), alpha=0.85, max_iter=200, tol=1e-12)
        err = max(abs(res.values[v] - nx_pr[v]) for v in range(powerlaw_small.num_vertices))
        assert err < 1e-6

    def test_mass_conserved(self, powerlaw_small):
        a = make_assignment(powerlaw_small)
        res = GeminiEngine(BSPCluster(4)).run(powerlaw_small, a, PageRank(iterations=10))
        assert res.values.sum() == pytest.approx(1.0)

    def test_runs_exactly_n_iterations(self, ring64):
        a = make_assignment(ring64)
        res = GeminiEngine(BSPCluster(4)).run(ring64, a, PageRank(iterations=7))
        assert res.iterations == 7
        assert res.ledger.num_iterations == 7

    def test_result_independent_of_partition(self, powerlaw_small):
        p1 = make_assignment(powerlaw_small, seed=0)
        p2 = make_assignment(powerlaw_small, seed=9)
        r1 = GeminiEngine(BSPCluster(4)).run(powerlaw_small, p1, PageRank(10))
        r2 = GeminiEngine(BSPCluster(4)).run(powerlaw_small, p2, PageRank(10))
        assert np.allclose(r1.values, r2.values)

    def test_dangling_vertices(self, isolated_vertices):
        a = make_assignment(isolated_vertices, k=2)
        res = GeminiEngine(BSPCluster(2)).run(isolated_vertices, a, PageRank(30))
        assert res.values.sum() == pytest.approx(1.0)
        assert (res.values > 0).all()


class TestConnectedComponents:
    def test_labels_match_networkx(self, two_components):
        a = make_assignment(two_components, k=2)
        res = GeminiEngine(BSPCluster(2)).run(two_components, a, ConnectedComponents())
        comps = {}
        for v, label in enumerate(res.values):
            comps.setdefault(label, set()).add(v)
        expected = {frozenset(c) for c in nx.connected_components(to_networkx(two_components))}
        assert {frozenset(s) for s in comps.values()} == expected

    def test_label_is_component_minimum(self, two_components):
        a = make_assignment(two_components, k=2)
        res = GeminiEngine(BSPCluster(2)).run(two_components, a, ConnectedComponents())
        assert res.values[0] == 0 and res.values[3] == 3

    def test_converges_in_diameter_iterations(self, path10):
        a = make_assignment(path10, k=2)
        res = GeminiEngine(BSPCluster(2)).run(path10, a, ConnectedComponents())
        assert res.iterations <= 11


class TestBFS:
    def test_bfs_matches_networkx(self, powerlaw_small):
        a = make_assignment(powerlaw_small)
        res = GeminiEngine(BSPCluster(4)).run(powerlaw_small, a, BFS(source=0))
        lengths = nx.single_source_shortest_path_length(to_networkx(powerlaw_small), 0)
        for v in range(powerlaw_small.num_vertices):
            if v in lengths:
                assert res.values[v] == lengths[v]
            else:
                assert np.isinf(res.values[v])

    def test_source_out_of_range(self, ring64):
        a = make_assignment(ring64)
        with pytest.raises(ValueError):
            GeminiEngine(BSPCluster(4)).run(ring64, a, BFS(source=100))


class TestEngineAccounting:
    def test_cluster_size_mismatch(self, ring64):
        a = make_assignment(ring64, k=4)
        with pytest.raises(SimulationError):
            GeminiEngine(BSPCluster(8)).run(ring64, a, PageRank(2))

    def test_messages_zero_on_single_part(self, powerlaw_small):
        a = HashPartitioner().partition(powerlaw_small, 1).assignment
        res = GeminiEngine(BSPCluster(1)).run(powerlaw_small, a, PageRank(3))
        assert res.total_messages == 0

    def test_aggregation_reduces_messages(self, powerlaw_small):
        from repro.partition.metrics import edge_cut_ratio

        # Every vertex is active, so without sender-side aggregation each cut
        # arc would carry one message.
        a = make_assignment(powerlaw_small)
        res = GeminiEngine(BSPCluster(4)).run(powerlaw_small, a, PageRank(1))
        cut_arcs = round(edge_cut_ratio(powerlaw_small, a.parts) * powerlaw_small.num_edges)
        assert 0 < res.total_messages < cut_arcs

    def test_compute_proportional_to_local_edges(self, powerlaw_small):
        a = make_assignment(powerlaw_small)
        res = GeminiEngine(BSPCluster(4)).run(powerlaw_small, a, PageRank(1))
        compute = res.ledger.compute_matrix[0]
        edges_per_m = np.bincount(a.parts, weights=powerlaw_small.degrees, minlength=4)
        # same cost model across machines → compute ∝ local work
        ratio = compute / (
            edges_per_m * BSPCluster(4).cost_model.edge_cost / BSPCluster(4).cost_model.cores
            + np.bincount(a.parts, minlength=4)
            * BSPCluster(4).cost_model.vertex_cost
            / BSPCluster(4).cost_model.cores
        )
        assert np.allclose(ratio, 1.0)


# ----------------------------------------------------------------------
# Bytes did not move: digests recorded on the commit before the grouped
# census (bb71436), with this file's own `_digest` run against that tree.
# The engine then also ran pull and adaptive modes and unaggregated
# messages; the cells kept are its push-mode, aggregated ones, each
# still under its recorded id.
# Re-record with `PYTHONPATH=src python tests/engines/test_gemini.py`.
# ----------------------------------------------------------------------
DIGESTS = Path(__file__).parent / "data" / "gemini_digests.json"
PROGRAMS = {
    "pagerank": lambda: PageRank(10),
    "cc": ConnectedComponents,
    "bfs": lambda: BFS(source=0),
}
GRID = [(prog, algo, seed)
        for prog in PROGRAMS for algo in ("bpart", "chunk-v", "hash") for seed in (1, 2)]
# Cells added on 1f6df5d, before the compiled census: the same graph with 8-byte
# neighbour ids and a fresh assignment, so the census is built from them.
WIDE = [(prog, "bpart", 1) for prog in PROGRAMS]


@functools.lru_cache(maxsize=None)
def _job(algo, seed):
    """(graph, assignment) on twitter 0.25, shared by every cell that
    uses it — so the memoised census structures are exercised across
    programs, as multi-app runs do."""
    g = twitter_like(scale=0.25, seed=seed)
    return g, get_partitioner(algo).partition(g, 8).assignment


def _digest(res) -> str:
    h = hashlib.sha256(res.ledger.to_json().encode())
    h.update(np.ascontiguousarray(res.values).tobytes())
    # the recorded runs hashed each iteration's mode, push in every kept cell
    h.update(repr((res.total_messages, ["push"] * res.iterations)).encode())
    return h.hexdigest()


def _cell(prog, algo, seed, *, cluster=BSPCluster, graph=None) -> str:
    g, a = _job(algo, seed)
    engine = GeminiEngine(cluster(a.num_parts))
    return _digest(engine.run(g if graph is None else graph, a, PROGRAMS[prog]()))


def _cell_id(prog, algo, seed) -> str:
    return f"{prog}/{algo}/push/agg/seed{seed}"


def _wide_cell(prog, algo, seed) -> str:
    g, a = _job(algo, seed)
    wide = CSRGraph(g.indptr, g.indices.astype(np.int64))
    engine = GeminiEngine(BSPCluster(a.num_parts))
    return _digest(engine.run(wide, PartitionAssignment(wide, a.parts, a.num_parts),
                              PROGRAMS[prog]()))


class TestBytesDidNotMove:
    @pytest.fixture(scope="class")
    def recorded(self):
        return json.loads(DIGESTS.read_text())

    @pytest.mark.parametrize("cell", GRID, ids=lambda c: _cell_id(*c))
    def test_grid(self, recorded, cell):
        assert _cell(*cell) == recorded[_cell_id(*cell)]

    @pytest.mark.parametrize("cell", WIDE, ids=lambda c: _cell_id(*c) + "/int64")
    def test_int64_indices(self, recorded, cell):
        assert _wide_cell(*cell) == recorded[_cell_id(*cell) + "/int64"]

    # A spilled graph, and a cluster given the empty fault plan with its
    # graph and assignment bound (as `trace` builds it), read the same
    # bytes as the dense graph on a plain BSPCluster (they did on bb71436 too).
    def test_spilled_graph(self, recorded, tmp_path):
        cell = ("pagerank", "bpart", 1)
        spilled = spill_csr(_job("bpart", 1)[0], tmp_path, shard_size=512)
        assert _cell(*cell, graph=spilled) == recorded[_cell_id(*cell)]

    def test_fault_aware_cluster_without_faults(self, recorded):
        cell = ("cc", "chunk-v", 2)
        g, a = _job("chunk-v", 2)

        def cluster(k):
            return BSPCluster(k, FaultPlan(), graph=g, assignment=a)

        assert _cell(*cell, cluster=cluster) == recorded[_cell_id(*cell)]


# ----------------------------------------------------------------------
# The grouped census against the per-iteration np.unique formulation it
# replaced, kept here as the oracle.
# ----------------------------------------------------------------------
class _Masks(VertexProgram):
    """Replays a fixed sequence of active masks, one per iteration."""

    name = "masks"

    def __init__(self, masks):
        self._masks = [np.asarray(m, dtype=bool) for m in masks]
        self.max_iterations = len(self._masks)

    def initialize(self, graph):
        return np.zeros(graph.num_vertices), self._masks[0]

    def iterate(self, graph, state, active, iteration):
        nxt = iteration + 1
        done = np.zeros(graph.num_vertices, dtype=bool)
        return state, self._masks[nxt] if nxt < len(self._masks) else done


class _RecordingCluster(BSPCluster):
    """A BSPCluster that also keeps what each superstep was charged."""

    def begin_run(self):
        super().begin_run()
        self.supersteps = []

    def superstep(self, *, edges, vertices, traffic, **kw):
        self.supersteps.append((edges.copy(), vertices.copy(), traffic.counts.copy()))
        super().superstep(edges=edges, vertices=vertices, traffic=traffic, **kw)


def pair_counts(m, src_machines, dst_machines):
    """``m × m`` count of cross-machine ``src → dst`` pairs (local ones dropped)."""
    src, dst = np.asarray(src_machines, np.int64), np.asarray(dst_machines, np.int64)
    cross = src != dst
    return np.bincount(src[cross] * m + dst[cross], minlength=m * m).reshape(m, m)


def oracle_push(graph, parts, active, m):
    """(edges, vertices, counts) of one push superstep, the old way:
    re-sort the live cut arcs' aggregation keys with np.unique."""
    src, dst = graph.edge_array()
    src, dst = src.astype(np.int64), dst.astype(np.int64)
    cut = parts[src] != parts[dst]
    src, dst = src[cut], dst[cut]
    live = active[src]
    keys = np.unique(parts[src[live]] * graph.num_vertices + dst[live])
    counts = pair_counts(m, keys // graph.num_vertices, parts[keys % graph.num_vertices])
    edges = np.bincount(parts, weights=graph.degrees * active, minlength=m)
    vertices = np.bincount(parts, weights=active, minlength=m)
    return edges, vertices, counts


def _supersteps(graph, parts, masks, k):
    cluster = _RecordingCluster(k)
    a = PartitionAssignment(graph, parts, k)
    res = GeminiEngine(cluster).run(graph, a, _Masks(masks))
    return res, cluster.supersteps


@st.composite
def census_cases(draw):
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 5))
    num_edges = draw(st.integers(0, 120))
    vertex = st.integers(0, n - 1)
    src = draw(st.lists(vertex, min_size=num_edges, max_size=num_edges))
    dst = draw(st.lists(vertex, min_size=num_edges, max_size=num_edges))
    parts = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    mask = st.one_of(
        st.just([True] * n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        vertex.map(lambda v: [i == v for i in range(n)]),
    )
    masks = draw(st.lists(mask, min_size=1, max_size=4))
    directed = draw(st.booleans())
    g = from_edges(src, dst, num_vertices=n, directed=directed)
    return g, np.asarray(parts, dtype=np.int64), masks, k


class TestGroupedCensus:
    @given(case=census_cases())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_push_matches_unique_oracle(self, case):
        g, parts, masks, k = case
        res, steps = _supersteps(g, parts, masks, k)
        # The engine stops at the first empty mask (no superstep for it).
        live = []
        for mask in masks:
            if not any(mask):
                break
            live.append(np.asarray(mask))
        assert res.iterations == len(steps) == len(live)
        for mask, (edges, vertices, counts) in zip(live, steps):
            want = oracle_push(g, parts, mask, k)
            for got, expected in zip((edges, vertices, counts), want):
                np.testing.assert_array_equal(got, expected)

    def test_single_machine(self, powerlaw_small):
        n = powerlaw_small.num_vertices
        parts = np.zeros(n, dtype=np.int64)
        _, steps = _supersteps(powerlaw_small, parts, [np.ones(n, bool)], 1)
        assert steps[0][2].tolist() == [[0]]
        assert steps[0][0].tolist() == [float(powerlaw_small.num_edges)]

    def test_no_cut_arcs(self, two_components):
        # Components {0,1,2} and {3,4} on their own machines: no arc is cut.
        parts = np.array([0, 0, 0, 1, 1])
        res, steps = _supersteps(two_components, parts, [np.ones(5, bool)], 2)
        assert res.total_messages == 0
        assert not steps[0][2].any()

    def test_machine_without_active_vertex(self, powerlaw_small):
        n = powerlaw_small.num_vertices
        parts = np.arange(n, dtype=np.int64) % 4
        mask = parts != 2  # machine 2 idles, the others are fully active
        _, steps = _supersteps(powerlaw_small, parts, [mask], 4)
        edges, vertices, counts = steps[0]
        assert edges[2] == vertices[2] == 0 and not counts[2].any()
        np.testing.assert_array_equal(counts, oracle_push(powerlaw_small, parts, mask, 4)[2])

    def test_matrix_is_fresh_per_superstep(self, powerlaw_small):
        n = powerlaw_small.num_vertices
        parts = np.arange(n, dtype=np.int64) % 4
        seen = []

        class Scribbling(_RecordingCluster):
            def superstep(self, *, traffic, **kw):
                seen.append(traffic)
                super().superstep(traffic=traffic, **kw)
                traffic.counts[:] = -1  # a cluster may consume its matrix

        a = PartitionAssignment(powerlaw_small, parts, 4)
        cluster = Scribbling(4)
        masks = [np.ones(n, bool)] * 3
        GeminiEngine(cluster).run(powerlaw_small, a, _Masks(masks))
        assert len({id(t) for t in seen}) == 3
        want = oracle_push(powerlaw_small, parts, masks[0], 4)[2]
        for _, _, counts in cluster.supersteps:
            np.testing.assert_array_equal(counts, want)
        # ...and a later run on the same assignment reuses the memoised census.
        res = GeminiEngine(BSPCluster(4)).run(powerlaw_small, a, _Masks(masks))
        assert res.total_messages == 3 * int(want.sum())

    def test_jobs_argument_is_gone(self):
        with pytest.raises(TypeError):
            GeminiEngine(BSPCluster(2), jobs=2)


class TestConnectedComponentsOnShards:
    def test_large_frontier_matches_dense(self, tmp_path):
        # >= 1024 labels change in the first iterations: the frontier
        # scatter must not touch `graph.indices`, which shards refuse.
        g = chung_lu(4000, 8.0, 2.2, rng=3)
        spilled = spill_csr(g, tmp_path, shard_size=512)
        a = HashPartitioner().partition(g, 4).assignment
        dense = GeminiEngine(BSPCluster(4)).run(g, a, ConnectedComponents())
        shard = GeminiEngine(BSPCluster(4)).run(spilled, a, ConnectedComponents())
        np.testing.assert_array_equal(shard.values, dense.values)
        assert shard.iterations == dense.iterations
        assert shard.ledger.to_json() == dense.ledger.to_json()


class TestTelemetry:
    def test_metric_names_of_one_run(self, powerlaw_small):
        a = make_assignment(powerlaw_small)
        telemetry.set_enabled(True)
        telemetry.reset()
        GeminiEngine(BSPCluster(4)).run(
            powerlaw_small, a, ConnectedComponents()
        )
        reg = telemetry.registry()
        names = {m.key.split("{")[0] for m in reg.metrics()}
        assert not any(name.startswith("parallel.") for name in names)
        assert {name for name in names if not name.startswith("cluster.")} == {
            "engine.gemini.runs",
            "engine.gemini.messages",
            "engine.gemini.iterations",
            "engine.gemini.active_vertices",
            "engine.gemini.active_arc_fraction",
        }
        assert [(s["name"], s["args"]) for s in reg.spans] == [
            ("engine.gemini.census.build", {"machines": 4}),
            ("engine.gemini.run", {"program": "connected-components", "machines": 4}),
        ]
        # The memoised structures are not rebuilt by a second run.
        GeminiEngine(BSPCluster(4)).run(powerlaw_small, a, PageRank(2))
        assert [s["name"] for s in reg.spans].count("engine.gemini.census.build") == 1


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    digests = {_cell_id(*cell): _cell(*cell) for cell in GRID}
    digests.update({_cell_id(*cell) + "/int64": _wide_cell(*cell) for cell in WIDE})
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
