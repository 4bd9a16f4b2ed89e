"""Unit tests for the KnightKing-like walk engine and its apps."""

from __future__ import annotations

import functools
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cluster import BSPCluster
from repro.engines.gemini import ConnectedComponents, GeminiEngine, PageRank
from repro.engines.knightking import (
    PPR,
    RWD,
    RWJ,
    DeepWalk,
    Node2Vec,
    WalkEngine,
    arcs_exist,
    uniform_neighbor,
)
from repro.errors import ConfigurationError, GraphFormatError, SimulationError
from repro.graph import (
    CSRGraph,
    chung_lu,
    from_edges,
    path_graph,
    spill_csr,
    star_graph,
    twitter_like,
)
from repro.partition import ChunkVPartitioner, HashPartitioner, get_partitioner


def make_assignment(g, k=4, seed=0):
    return HashPartitioner(seed=seed).partition(g, k).assignment


class TestTransitionPrimitives:
    def test_uniform_neighbor_valid(self, powerlaw_small):
        rng = np.random.default_rng(0)
        pos = rng.integers(0, powerlaw_small.num_vertices, size=500)
        targets, dead = uniform_neighbor(powerlaw_small, pos, rng)
        for p, t, d in zip(pos, targets, dead):
            if not d:
                assert powerlaw_small.has_edge(p, t)

    def test_uniform_neighbor_dead_end(self, isolated_vertices):
        rng = np.random.default_rng(0)
        targets, dead = uniform_neighbor(isolated_vertices, np.array([5]), rng)
        assert dead[0]
        assert targets[0] == 5

    def test_uniform_neighbor_distribution(self):
        g = star_graph(4)  # hub 0 with leaves 1..4
        rng = np.random.default_rng(1)
        targets, _ = uniform_neighbor(g, np.zeros(40_000, dtype=np.int64), rng)
        counts = np.bincount(targets, minlength=5)[1:]
        assert counts.min() > 0.8 * counts.max()

    def test_arcs_exist_matches_has_edge(self, powerlaw_small):
        rng = np.random.default_rng(2)
        n = powerlaw_small.num_vertices
        src = rng.integers(0, n, size=1000)
        dst = rng.integers(0, n, size=1000)
        got = arcs_exist(powerlaw_small, src, dst)
        expected = np.array([powerlaw_small.has_edge(u, v) for u, v in zip(src, dst)])
        assert np.array_equal(got, expected)

    def test_arcs_exist_empty_graph(self):
        g = from_edges([], [], num_vertices=3)
        assert not arcs_exist(g, np.array([0]), np.array([1]))[0]

    # Key 0·4 + 6 collided with arc 1 → 2, and -3 wrapped around; the walker
    # at -1 raised an IndexError about "size 6". Every id is checked before C.
    @pytest.mark.parametrize("sharded", [False, True], ids=["dense", "sharded"])
    @pytest.mark.parametrize("call, bad", [
        (lambda g: arcs_exist(g, [0], [6]), "targets .*got 6"),
        (lambda g: arcs_exist(g, [1], [-3]), "targets .*got -3"),
        (lambda g: arcs_exist(g, [4, 0], [0, 0]), "sources .*got 4"),
        (lambda g: uniform_neighbor(g, [-1], np.random.default_rng(0)), "positions .*got -1"),
    ], ids=["target-past-n", "negative-target", "source-past-n", "negative-position"])
    def test_ids_outside_the_graph(self, tmp_path, sharded, call, bad):
        g = from_edges([0, 1, 1], [1, 2, 3], num_vertices=4)
        with pytest.raises(ConfigurationError, match=rf"{bad}\b"):
            call(spill_csr(g, tmp_path, shard_size=2) if sharded else g)

    def test_arcs_exist_pairs_sources_with_targets(self):
        with pytest.raises(ConfigurationError, match="2 sources but 1 targets"):
            arcs_exist(path_graph(4), [0, 1], [1])


@st.composite
def membership_cases(draw):
    """A small graph (isolated vertices and zero arcs included) and query
    pairs that hit its arcs, touch vertices 0 and n − 1 and repeat."""
    n = draw(st.integers(1, 30))
    vertex = st.integers(0, n - 1) | st.sampled_from([0, n - 1])
    num_edges = draw(st.integers(0, 60))
    src = draw(st.lists(vertex, min_size=num_edges, max_size=num_edges))
    dst = draw(st.lists(vertex, min_size=num_edges, max_size=num_edges))
    g = from_edges(src, dst, num_vertices=n, directed=draw(st.booleans()))
    pair = st.tuples(vertex, vertex)
    if g.num_edges:
        pair = pair | st.sampled_from(list(g.iter_edges()))
    queries = draw(st.lists(pair, max_size=40))
    queries += queries[: draw(st.integers(0, len(queries)))]
    return g, np.array(queries, dtype=np.int64).reshape(-1, 2)


class TestArcMembership:
    @given(case=membership_cases())
    @example(case=(from_edges([], [], num_vertices=3), np.array([[0, 2], [0, 2]])))
    @example(case=(path_graph(4), np.empty((0, 2), dtype=np.int64)))
    @settings(max_examples=150, deadline=None)
    def test_sorted_lookup_matches_has_edge_and_round_loop(self, case):
        g, queries = case
        src, dst = queries[:, 0], queries[:, 1]
        got = arcs_exist(g, src, dst)
        assert got.dtype == bool and got.shape == src.shape
        assert got.tolist() == [g.has_edge(int(u), int(v)) for u, v in queries]
        with tempfile.TemporaryDirectory() as spill:
            twin = spill_csr(g, spill, shard_size=7)
            np.testing.assert_array_equal(arcs_exist(twin, src, dst), got)

    def test_unsorted_row_raises_on_first_use(self):
        # Row 0 is [2, 1]: the round loop answered (0, 2) with False.
        g = CSRGraph(np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]))
        with pytest.raises(GraphFormatError, match="sorted"):
            arcs_exist(g, np.array([0]), np.array([2]))


class TestEngineBasics:
    def test_paths_follow_edges(self, powerlaw_small):
        a = make_assignment(powerlaw_small)
        engine = WalkEngine(BSPCluster(4), seed=1, record_paths=True)
        res = engine.run(powerlaw_small, a, DeepWalk(), walkers_per_vertex=1, max_steps=5)
        for row in res.paths[:200]:
            trace = row[row >= 0]
            for u, v in zip(trace[:-1], trace[1:]):
                assert powerlaw_small.has_edge(int(u), int(v))

    def test_fixed_length_walks(self, k5):
        a = make_assignment(k5, k=2)
        engine = WalkEngine(BSPCluster(2), seed=1)
        res = engine.run(k5, a, DeepWalk(), walkers_per_vertex=1, max_steps=4)
        # K5 has no dead ends: every walker takes exactly 4 steps
        assert res.total_steps == 5 * 4
        assert res.num_supersteps == 4

    def test_walkers_per_vertex(self, ring64):
        a = make_assignment(ring64)
        engine = WalkEngine(BSPCluster(4), seed=1)
        res = engine.run(ring64, a, DeepWalk(), walkers_per_vertex=3, max_steps=2)
        assert res.total_steps == 64 * 3 * 2

    def test_explicit_starts(self, ring64):
        a = make_assignment(ring64)
        engine = WalkEngine(BSPCluster(4), seed=1, record_paths=True)
        starts = np.array([0, 0, 7])
        res = engine.run(ring64, a, DeepWalk(), start_vertices=starts, max_steps=1)
        assert res.paths.shape[0] == 3
        assert list(res.paths[:, 0]) == [0, 0, 7]

    @pytest.mark.parametrize("starts, bad", [([-1, 0], -1), ([3, 64, 65], 64)])
    def test_start_vertices_outside_the_graph(self, ring64, starts, bad):
        class Watched(BSPCluster):
            def begin_run(self):
                raise AssertionError("the run started")

        a = make_assignment(ring64)
        with pytest.raises(ConfigurationError, match=rf"start_vertices .*got {bad}\b"):
            WalkEngine(Watched(4)).run(ring64, a, DeepWalk(), start_vertices=np.array(starts))

    # These used to walk from [1, 2], run 3 and 1 steps, and raise a raw
    # TypeError and IndexError.
    @pytest.mark.parametrize("kwargs, name", [
        ({"start_vertices": np.array([1.7, 2.2])}, "start_vertices"),
        ({"start_vertices": np.array([[1, 2]])}, "start_vertices"),
        ({"max_steps": 2.5}, "max_steps"),
        ({"max_steps": True}, "max_steps"),
        ({"walkers_per_vertex": 1.5}, "walkers_per_vertex"),
    ], ids=["float-starts", "2d-starts", "float-steps", "bool-steps", "float-walkers"])
    def test_bad_arguments_are_configuration_errors(self, ring64, kwargs, name):
        class Watched(BSPCluster):
            def begin_run(self):
                raise AssertionError("the run started")

        with pytest.raises(ConfigurationError, match=name):
            WalkEngine(Watched(4)).run(ring64, make_assignment(ring64), DeepWalk(), **kwargs)

    def test_steps_matrix_sums_to_total(self, powerlaw_small):
        a = make_assignment(powerlaw_small)
        engine = WalkEngine(BSPCluster(4), seed=1)
        res = engine.run(powerlaw_small, a, DeepWalk(), walkers_per_vertex=2, max_steps=4)
        assert int(res.steps_matrix.sum()) == res.total_steps

    def test_deterministic_given_seed(self, powerlaw_small):
        a = make_assignment(powerlaw_small)
        r1 = WalkEngine(BSPCluster(4), seed=5).run(
            powerlaw_small, a, DeepWalk(), walkers_per_vertex=1, max_steps=3
        )
        r2 = WalkEngine(BSPCluster(4), seed=5).run(
            powerlaw_small, a, DeepWalk(), walkers_per_vertex=1, max_steps=3
        )
        assert np.array_equal(r1.final_positions, r2.final_positions)

    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            WalkEngine(BSPCluster(2), mode="async")

    def test_cluster_size_mismatch(self, ring64):
        a = make_assignment(ring64, k=4)
        with pytest.raises(SimulationError):
            WalkEngine(BSPCluster(2)).run(ring64, a, DeepWalk())

    def test_invalid_steps(self, ring64):
        a = make_assignment(ring64)
        with pytest.raises(ConfigurationError):
            WalkEngine(BSPCluster(4)).run(ring64, a, DeepWalk(), max_steps=0)

    def test_messages_zero_single_machine(self, powerlaw_small):
        a = HashPartitioner().partition(powerlaw_small, 1).assignment
        res = WalkEngine(BSPCluster(1), seed=1).run(
            powerlaw_small, a, DeepWalk(), walkers_per_vertex=1, max_steps=4
        )
        assert res.total_messages == 0


class TestGreedyMode:
    def test_fewer_supersteps_than_steps(self, ring64):
        # contiguous chunks on a ring: walkers stay local for long runs
        a = ChunkVPartitioner().partition(ring64, 4).assignment
        res = WalkEngine(BSPCluster(4), seed=2, mode="greedy").run(
            ring64, a, DeepWalk(), walkers_per_vertex=1, max_steps=8
        )
        assert res.num_supersteps < 8
        assert res.total_steps == 64 * 8

    def test_same_total_steps_as_sync(self, powerlaw_small):
        a = make_assignment(powerlaw_small)
        sync = WalkEngine(BSPCluster(4), seed=3).run(
            powerlaw_small, a, DeepWalk(), walkers_per_vertex=1, max_steps=4
        )
        greedy = WalkEngine(BSPCluster(4), seed=3, mode="greedy").run(
            powerlaw_small, a, DeepWalk(), walkers_per_vertex=1, max_steps=4
        )
        assert greedy.total_steps == sync.total_steps

    @pytest.mark.parametrize("mode", ["step_sync", "greedy"])
    def test_messages_equal_machine_crossings_in_paths(self, ring64, mode):
        a = ChunkVPartitioner().partition(ring64, 4).assignment
        res = WalkEngine(BSPCluster(4), seed=2, mode=mode, record_paths=True).run(
            ring64, a, DeepWalk(), walkers_per_vertex=1, max_steps=8
        )
        parts = a.parts
        crossings = 0
        for row in res.paths:
            trace = row[row >= 0]
            crossings += int((parts[trace[:-1]] != parts[trace[1:]]).sum())
        assert res.total_messages == crossings


class TestApps:
    def test_ppr_lengths_geometric(self, k5):
        a = make_assignment(k5, k=2)
        engine = WalkEngine(BSPCluster(2), seed=4, record_paths=True)
        res = engine.run(
            k5, a, PPR(stop_prob=0.5), walkers_per_vertex=2000, max_steps=50
        )
        lengths = (res.paths >= 0).sum(axis=1) - 1
        # geometric with p=0.5 → mean 1 continuation... E[len] = (1-p)/p = 1
        assert lengths.mean() == pytest.approx(1.0, abs=0.1)

    def test_ppr_invalid_prob(self):
        with pytest.raises(ConfigurationError):
            PPR(stop_prob=1.5)

    def test_rwj_jumps_leave_neighbors(self):
        # On a path, jumps produce non-adjacent transitions.
        g = path_graph(100)
        a = make_assignment(g, k=2)
        engine = WalkEngine(BSPCluster(2), seed=5, record_paths=True)
        res = engine.run(g, a, RWJ(jump_prob=0.5), walkers_per_vertex=5, max_steps=4)
        non_adjacent = 0
        for row in res.paths:
            trace = row[row >= 0]
            for u, v in zip(trace[:-1], trace[1:]):
                if not g.has_edge(int(u), int(v)):
                    non_adjacent += 1
        assert non_adjacent > 0

    def test_rwj_rescues_dead_ends(self, isolated_vertices):
        a = make_assignment(isolated_vertices, k=2)
        engine = WalkEngine(BSPCluster(2), seed=6)
        res = engine.run(
            isolated_vertices,
            a,
            RWJ(jump_prob=1.0),
            start_vertices=np.array([5, 5, 5]),
            max_steps=3,
        )
        assert res.total_steps == 9  # always jumps, never terminates early

    def test_rwd_prefers_high_degree(self):
        g = star_graph(30)
        a = make_assignment(g, k=2)
        engine = WalkEngine(BSPCluster(2), seed=7, record_paths=True)
        # start at leaves: all transitions go to the hub (only neighbour),
        # then from hub to leaves; degree bias shows on richer graphs —
        # use lollipop: clique + path
        res = engine.run(g, a, RWD(), walkers_per_vertex=1, max_steps=2)
        assert res.total_steps > 0

    def test_rwd_degree_bias(self, powerlaw_small):
        a = make_assignment(powerlaw_small)
        eng1 = WalkEngine(BSPCluster(4), seed=8)
        r_uniform = eng1.run(powerlaw_small, a, DeepWalk(), walkers_per_vertex=2, max_steps=4)
        eng2 = WalkEngine(BSPCluster(4), seed=8)
        r_rwd = eng2.run(powerlaw_small, a, RWD(), walkers_per_vertex=2, max_steps=4)
        deg = powerlaw_small.degrees
        assert deg[r_rwd.final_positions].mean() > deg[r_uniform.final_positions].mean()

    def test_node2vec_first_step_uniform(self, k5):
        a = make_assignment(k5, k=2)
        engine = WalkEngine(BSPCluster(2), seed=9, record_paths=True)
        res = engine.run(k5, a, Node2Vec(p=1, q=1), walkers_per_vertex=1, max_steps=1)
        for row in res.paths:
            assert k5.has_edge(int(row[0]), int(row[1]))

    def test_node2vec_return_bias(self, ring64):
        a = make_assignment(ring64)
        # tiny p → strong return bias: many 2-hop revisits on a ring
        engine = WalkEngine(BSPCluster(4), seed=10, record_paths=True)
        res = engine.run(
            ring64, a, Node2Vec(p=0.01, q=100.0), walkers_per_vertex=4, max_steps=6
        )
        paths = res.paths
        revisit = 0
        total = 0
        for t in range(2, paths.shape[1]):
            valid = (paths[:, t] >= 0) & (paths[:, t - 2] >= 0)
            revisit += int((paths[valid, t] == paths[valid, t - 2]).sum())
            total += int(valid.sum())
        assert revisit / total > 0.8

    def test_node2vec_exploration_bias(self, ring64):
        a = make_assignment(ring64)
        engine = WalkEngine(BSPCluster(4), seed=10, record_paths=True)
        res = engine.run(
            ring64, a, Node2Vec(p=100.0, q=0.01), walkers_per_vertex=4, max_steps=6
        )
        paths = res.paths
        revisit = 0
        total = 0
        for t in range(2, paths.shape[1]):
            valid = (paths[:, t] >= 0) & (paths[:, t - 2] >= 0)
            revisit += int((paths[valid, t] == paths[valid, t - 2]).sum())
            total += int(valid.sum())
        assert revisit / total < 0.1

    def test_node2vec_invalid_params(self):
        with pytest.raises(ConfigurationError):
            Node2Vec(p=0)
        with pytest.raises(ConfigurationError):
            Node2Vec(q=-1)


class TestVisitTracking:
    def test_counts_match_paths(self):
        g = chung_lu(300, 6.0, rng=50)
        a = HashPartitioner().partition(g, 2).assignment
        engine = WalkEngine(BSPCluster(2), seed=51, record_paths=True, track_visits=True)
        res = engine.run(g, a, DeepWalk(), walkers_per_vertex=2, max_steps=5)
        expected = np.bincount(
            res.paths[res.paths >= 0].ravel(), minlength=g.num_vertices
        )
        assert np.array_equal(res.visit_counts, expected)

    def test_total_visits(self):
        g = chung_lu(300, 6.0, rng=52)
        a = HashPartitioner().partition(g, 2).assignment
        engine = WalkEngine(BSPCluster(2), seed=53, track_visits=True)
        res = engine.run(g, a, DeepWalk(), walkers_per_vertex=1, max_steps=3)
        # one visit per start + one per executed step
        assert res.visit_counts.sum() == g.num_vertices + res.total_steps

    def test_disabled_by_default(self):
        g = chung_lu(100, 4.0, rng=54)
        a = HashPartitioner().partition(g, 2).assignment
        engine = WalkEngine(BSPCluster(2), seed=55)
        res = engine.run(g, a, DeepWalk(), walkers_per_vertex=1, max_steps=2)
        assert res.visit_counts is None


class TestTelemetry:
    def test_run_span(self, ring64):
        a = make_assignment(ring64)
        telemetry.set_enabled(True)
        for app in (DeepWalk(), Node2Vec()):
            WalkEngine(BSPCluster(4), seed=1).run(ring64, a, app, max_steps=3)
        spans = telemetry.registry().spans
        assert [(s["name"], s["args"]) for s in spans] == [
            ("engine.walk.run", {"app": "deepwalk", "machines": 4}),
            ("engine.walk.run", {"app": "node2vec", "machines": 4}),
        ]
        assert all(s["dur"] > 0 for s in spans)


# ----------------------------------------------------------------------
# Bytes did not move: digests recorded on the commit before the sorted-key
# arc test and the bincount traffic count (4a82ba1), with this file's own
# `_digest` run against that tree.
# Re-record with `PYTHONPATH=src python tests/engines/test_knightking.py`.
# ----------------------------------------------------------------------
DIGESTS = Path(__file__).parent / "data" / "walk_digests.json"
APPS = {
    "deepwalk": DeepWalk,
    "node2vec": lambda: Node2Vec(2.0, 0.5),
    "ppr": lambda: PPR(0.1),
    "rwj": lambda: RWJ(0.2),
    "rwd": RWD,
}
#: engine options of each cell variant; the original cells (no suffix) record paths
VARIANTS = {"paths": {"record_paths": True}, "nopaths": {}, "visits": {"track_visits": True}}
MODES = ("step_sync", "greedy")
GRID = [(app, algo, mode) for app in APPS for algo in ("bpart", "chunk-v") for mode in MODES]
# Cells added on 1f6df5d, before the superstep kernel: no paths, visit counts, and
# node2vec on int64 indices.
GRID += [(app, "bpart", mode, variant)
         for variant in ("nopaths", "visits") for app in APPS for mode in MODES]
GRID += [("node2vec", "bpart", mode, "int64") for mode in MODES]


@functools.lru_cache(maxsize=None)
def _job(algo):
    g = twitter_like(scale=0.1, seed=1)
    return g, get_partitioner(algo, seed=1).partition(g, 4).assignment


def _cell(app, algo, mode, variant="paths") -> str:
    g, a = _job(algo)
    if variant == "int64":  # the same graph with 8-byte neighbour ids
        g, variant = CSRGraph(g.indptr, g.indices.astype(np.int64)), "paths"
    engine = WalkEngine(BSPCluster(4), mode=mode, seed=4, **VARIANTS[variant])
    res = engine.run(g, a, APPS[app](), walkers_per_vertex=2, max_steps=8)
    h = hashlib.sha256(res.ledger.to_json().encode())
    for out in (res.paths, res.final_positions, res.visit_counts):
        if out is not None:
            h.update(np.ascontiguousarray(out, dtype=np.int64).tobytes())
    return h.hexdigest()


#: analytics_bsp's body (benchmarks/e2e/workloads.py) at twitter scale 0.25
ANALYTICS = (
    (GeminiEngine, lambda: PageRank(10), {}),
    (GeminiEngine, ConnectedComponents, {}),
    (WalkEngine, DeepWalk, {"walkers_per_vertex": 5, "max_steps": 4}),
    (WalkEngine, lambda: Node2Vec(2.0, 0.5), {"walkers_per_vertex": 5, "max_steps": 4}),
    (WalkEngine, lambda: PPR(0.1), {"walkers_per_vertex": 5, "max_steps": 60}),
)


def _analytics_cell(seed=1) -> str:
    """Every ledger of the five apps on BPart and Chunk-V, k = 8."""
    g = twitter_like(scale=0.25, seed=seed)
    h = hashlib.sha256()
    for algo in ("bpart", "chunk-v"):
        a = get_partitioner(algo, seed=seed).partition(g, 8).assignment
        for engine, make, kwargs in ANALYTICS:
            cluster = BSPCluster(8)
            run = GeminiEngine(cluster) if engine is GeminiEngine else WalkEngine(cluster, seed=seed)
            h.update(run.run(g, a, make(), **kwargs).ledger.to_json().encode())
    return h.hexdigest()


class TestBytesDidNotMove:
    @pytest.fixture(scope="class")
    def recorded(self):
        return json.loads(DIGESTS.read_text())

    @pytest.mark.parametrize("cell", GRID, ids="/".join)
    def test_grid(self, recorded, cell):
        assert _cell(*cell) == recorded["/".join(cell)]

    def test_analytics_shape(self, recorded):
        assert _analytics_cell() == recorded["analytics/twitter-0.25/seed1"]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    digests = {"/".join(cell): _cell(*cell) for cell in GRID}
    digests["analytics/twitter-0.25/seed1"] = _analytics_cell()
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
