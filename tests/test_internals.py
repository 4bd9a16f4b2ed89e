"""Tests for internals not exercised elsewhere: multilevel pieces,
GD projection, workload caps, adaptive thresholds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import chung_lu, ring_graph


class TestMultilevelInternals:
    def test_contract_merges_clusters(self):
        from repro.partition.multilevel import _contract

        g = ring_graph(6)
        indptr = g.indptr.astype(np.int64)
        indices = g.indices.astype(np.int64)
        ew = np.ones(indices.size)
        vw = np.ones(6)
        labels = np.array([0, 0, 1, 1, 2, 2])
        level = _contract(indptr, indices, ew, vw, labels)
        assert level.num_vertices == 3
        assert level.vweights.sum() == 6
        # contracted ring of 3 super-vertices: each pair connected
        assert level.indices.size == 6

    def test_contract_accumulates_edge_weights(self):
        from repro.partition.multilevel import _contract

        g = ring_graph(4)
        labels = np.array([0, 0, 1, 1])
        level = _contract(
            g.indptr.astype(np.int64),
            g.indices.astype(np.int64),
            np.ones(g.num_edges),
            np.ones(4),
            labels,
        )
        # two cut edges between the halves, in both directions
        assert level.eweights.sum() == 4
        assert level.eweights.max() == 2

    def test_label_propagation_respects_size_cap(self):
        from repro.partition.multilevel import _label_propagation

        g = chung_lu(300, 8.0, rng=130)
        labels = _label_propagation(
            g.indptr.astype(np.int64),
            g.indices.astype(np.int64),
            np.ones(g.num_edges),
            np.ones(g.num_vertices),
            max_cluster_weight=20.0,
            rng=np.random.default_rng(0),
        )
        _, counts = np.unique(labels, return_counts=True)
        assert counts.max() <= 20


class TestGDInternals:
    def test_projection_satisfies_constraints(self):
        from repro.partition.gd import _project_balance

        rng = np.random.default_rng(0)
        d = rng.uniform(1, 50, size=200)
        x = _project_balance(rng.uniform(-1, 1, size=200), d, rounds=30)
        assert abs(x.sum()) < 1.0  # near the Σx=0 plane after clipping
        assert abs((d * x).sum()) < d.sum() * 0.02
        assert x.min() >= -1.0 and x.max() <= 1.0


class TestWorkloadCaps:
    def test_ppr_respects_step_cap(self):
        from repro.bench.workloads import PPR_STEP_CAP, run_walk_job
        from repro.partition import HashPartitioner

        g = chung_lu(300, 8.0, rng=131)
        a = HashPartitioner().partition(g, 2).assignment
        res = run_walk_job(g, a, app_name="ppr", walkers_per_vertex=1, seed=131)
        assert res.num_supersteps <= PPR_STEP_CAP

    def test_fixed_length_apps_run_exactly_four(self):
        from repro.bench.workloads import run_walk_job
        from repro.partition import HashPartitioner

        g = chung_lu(300, 8.0, rng=132)
        a = HashPartitioner().partition(g, 2).assignment
        for app in ("rwj", "rwd", "deepwalk", "node2vec"):
            res = run_walk_job(g, a, app_name=app, walkers_per_vertex=1, seed=1)
            assert res.num_supersteps == 4, app


class TestBarChart:
    def test_render(self):
        from repro.bench.report import BarChart

        c = BarChart("loads", width=10, note="x")
        c.add("a", 10.0)
        c.add("bb", 5.0)
        out = c.render()
        lines = out.splitlines()
        assert lines[0] == "loads"
        assert "██████████" in lines[1]  # full bar for the max
        assert "█████·····" in lines[2]
        assert "paper: x" in out

    def test_empty(self):
        from repro.bench.report import BarChart

        assert BarChart("t").render() == "t"

    def test_negative_rejected(self):
        from repro.bench.report import BarChart

        with pytest.raises(ValueError):
            BarChart("t").add("x", -1.0)


class TestResultSerialisation:
    def test_to_dict_roundtrips_json(self):
        import json

        from repro.bench import ExperimentConfig, run_experiment

        res = run_experiment("fig08", ExperimentConfig(scale=0.05, seed=3))
        payload = json.dumps(res.to_dict())
        back = json.loads(payload)
        assert back["experiment_id"] == "fig08"
        assert "corr" in back["data"]
