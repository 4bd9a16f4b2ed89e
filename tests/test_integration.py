"""End-to-end integration tests: generate → partition → run → account.

These exercise the full pipeline the way the paper's evaluation does,
asserting the cross-module invariants that no unit test can see.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workloads import run_app, run_walk_job
from repro.cluster import BSPCluster
from repro.engines.gemini import ConnectedComponents, GeminiEngine, PageRank
from repro.graph import load_dataset, social_graph
from repro.partition import (
    balance_report,
    bias,
    edge_cut_ratio,
    get_partitioner,
)

PARTITIONERS = ("chunk-v", "chunk-e", "fennel", "hash", "bpart")


@pytest.fixture(scope="module")
def g():
    return load_dataset("twitter", scale=0.15, seed=5)


@pytest.fixture(scope="module")
def assignments(g):
    return {
        name: get_partitioner(name, seed=5).partition(g, 8).assignment
        for name in PARTITIONERS
    }


class TestPaperHeadlines:
    """The paper's headline claims, asserted end-to-end."""

    def test_bpart_two_dimensional_balance(self, assignments):
        rep = balance_report(assignments["bpart"])
        assert rep.vertex_bias < 0.1
        assert rep.edge_bias < 0.1

    def test_one_dimensional_schemes_skew_other_dimension(self, assignments):
        assert bias(assignments["chunk-v"].edge_counts) > 3 * bias(
            assignments["bpart"].edge_counts
        )
        assert bias(assignments["chunk-e"].vertex_counts) > 3 * bias(
            assignments["bpart"].vertex_counts
        )

    def test_bpart_cut_between_fennel_and_hash(self, g, assignments):
        cuts = {n: edge_cut_ratio(g, a.parts) for n, a in assignments.items()}
        assert cuts["fennel"] < cuts["bpart"] < cuts["hash"] + 0.01

    def test_bpart_fastest_on_walks(self, g, assignments):
        runtimes = {
            n: run_walk_job(g, a, app_name="deepwalk", walkers_per_vertex=5, seed=5).runtime
            for n, a in assignments.items()
        }
        assert runtimes["bpart"] == min(runtimes.values())

    def test_bpart_less_waiting_than_chunkers(self, g, assignments):
        ratios = {
            n: run_walk_job(g, a, app_name="deepwalk", walkers_per_vertex=5, seed=5)
            .ledger.waiting_ratio
            for n, a in assignments.items()
        }
        assert ratios["bpart"] < ratios["chunk-v"]
        assert ratios["bpart"] < ratios["chunk-e"]
        assert ratios["bpart"] < ratios["fennel"]

    def test_bpart_beats_hash_on_iteration_apps(self, g, assignments):
        t_hash = run_app("pagerank", g, assignments["hash"], seed=5).runtime
        t_bpart = run_app("pagerank", g, assignments["bpart"], seed=5).runtime
        assert t_bpart < t_hash


class TestCrossModuleConsistency:
    def test_walk_messages_bounded_by_steps(self, g, assignments):
        for name, a in assignments.items():
            res = run_walk_job(g, a, app_name="deepwalk", walkers_per_vertex=1, seed=5)
            assert res.total_messages <= res.total_steps

    def test_walk_message_rate_tracks_cut_ratio(self, g, assignments):
        """More cut edges ⇒ more transmitted walkers (approximately).

        Hash (87.5% cut) must transmit more than Fennel (lowest cut)."""
        rates = {}
        for name in ("fennel", "hash"):
            res = run_walk_job(
                g, assignments[name], app_name="deepwalk", walkers_per_vertex=2, seed=5
            )
            rates[name] = res.total_messages / res.total_steps
        assert rates["fennel"] < rates["hash"]

    def test_gemini_results_partition_invariant(self, g, assignments):
        engines = {}
        for name in ("chunk-v", "bpart"):
            eng = GeminiEngine(BSPCluster(8))
            engines[name] = eng.run(g, assignments[name], PageRank(5)).values
        assert np.allclose(engines["chunk-v"], engines["bpart"])

    def test_ledger_iterations_match_engine(self, g, assignments):
        eng = GeminiEngine(BSPCluster(8))
        res = eng.run(g, assignments["bpart"], ConnectedComponents())
        assert res.ledger.num_iterations == res.iterations

    def test_walk_compute_load_tracks_edge_counts(self, g, assignments):
        """First-iteration walker steps per machine ∝ walkers per machine;
        later iterations drift toward edge-heavy machines (the paper's
        Figure 4 mechanism)."""
        a = assignments["chunk-v"]
        res = run_walk_job(g, a, app_name="deepwalk", walkers_per_vertex=5, seed=5)
        first = res.steps_matrix[0]
        vertices = a.vertex_counts
        # walkers start uniformly: iteration-0 steps ≈ 5·|V_i| (exactly,
        # minus the few walkers stuck on zero-degree vertices)
        assert np.all(first <= 5 * vertices)
        assert first.sum() > 0.95 * 5 * vertices.sum()
        last = res.steps_matrix[-1]
        edges = a.edge_counts
        # by the last iteration the load correlates with edge mass
        assert np.corrcoef(last, edges)[0, 1] > 0.5


class TestScaleRobustness:
    @pytest.mark.parametrize("k", [3, 5, 12])
    def test_bpart_arbitrary_part_counts(self, k):
        g = social_graph(2000, 12.0, 2.2, rng=6)
        a = get_partitioner("bpart", seed=6).partition(g, k).assignment
        assert len(np.unique(a.parts)) == k
        assert bias(a.vertex_counts) < 0.2
        assert bias(a.edge_counts) < 0.2

    def test_full_pipeline_on_all_datasets(self):
        for ds in ("livejournal", "twitter", "friendster"):
            g = load_dataset(ds, scale=0.08, seed=7)
            a = get_partitioner("bpart", seed=7).partition(g, 4).assignment
            res = run_walk_job(g, a, app_name="ppr", walkers_per_vertex=1, seed=7)
            assert res.total_steps > 0
            assert res.ledger.num_iterations >= 1
