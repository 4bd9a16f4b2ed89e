"""Unit tests for the experiment registry, workloads, and CLI."""

from __future__ import annotations

import pytest

from repro.bench import (
    ALL_APPS,
    ExperimentConfig,
    available_experiments,
    experiment_description,
    run_app,
    run_experiment,
    run_walk_job,
)
from repro.errors import ConfigurationError
from repro.graph import twitter_like
from repro.partition import get_partitioner

TINY = ExperimentConfig(scale=0.05, seed=3)

EXPECTED_EXPERIMENTS = {
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig08",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "table2",
    "table3",
    "connectivity",
    "multilevel",
    "ablation",
}

#: experiment id → what keeps it although it reproduces no paper figure or table
#: (DESIGN.md §3: an experiment counts as a caller only through one of these two sets).
EXTENSIONS = {
    "faults": "CLI `faults`",
    "churn": "CLI `churn`",
    "serving_slo": "CLI `serve` and the `serve_*` workloads",
    "serving_availability": "the `serve_k2_chaos` workload",
    "scaling": "the scaled-dataset substitution of DESIGN.md §2",
    "sysablation": "its restreaming table, which ROADMAP item 21 re-measures",
}


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        assert EXPECTED_EXPERIMENTS <= set(available_experiments())

    def test_every_experiment_reproduces_the_paper_or_names_its_keeper(self):
        assert not EXPECTED_EXPERIMENTS & EXTENSIONS.keys()
        assert set(available_experiments()) == EXPECTED_EXPERIMENTS | EXTENSIONS.keys()

    def test_descriptions_nonempty(self):
        for eid in available_experiments():
            assert experiment_description(eid)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")


class TestWorkloads:
    @pytest.fixture(scope="class")
    def setup(self):
        g = twitter_like(scale=0.1, seed=2)
        a = get_partitioner("bpart", seed=2).partition(g, 4).assignment
        return g, a

    @pytest.mark.parametrize("app", ALL_APPS)
    def test_every_app_runs(self, setup, app):
        g, a = setup
        run = run_app(app, g, a, seed=2)
        assert run.runtime > 0
        assert run.iterations >= 1
        assert 0 <= run.waiting_ratio < 1

    def test_unknown_app(self, setup):
        g, a = setup
        with pytest.raises(KeyError):
            run_app("trianglecount", g, a)

    def test_walk_job_modes(self, setup):
        g, a = setup
        sync = run_walk_job(g, a, app_name="deepwalk", walkers_per_vertex=1, seed=2)
        greedy = run_walk_job(
            g, a, app_name="deepwalk", walkers_per_vertex=1, seed=2, mode="greedy"
        )
        assert sync.total_steps == greedy.total_steps
        assert sync.num_supersteps == 4


class TestExperimentsSmoke:
    """Every experiment must run end-to-end at tiny scale."""

    @pytest.mark.parametrize("eid", sorted(EXPECTED_EXPERIMENTS))
    def test_runs_and_renders(self, eid):
        result = run_experiment(eid, TINY)
        out = result.render()
        assert result.experiment_id == eid
        assert len(out) > 50
        assert result.tables or result.series


class TestExperimentShapes:
    """Key paper findings hold at small scale."""

    def test_fig10_bpart_hugs_origin(self):
        res = run_experiment("fig10", ExperimentConfig(scale=0.15, seed=1))
        for (dataset, name, k), (vb, eb) in res.data.items():
            if name == "bpart":
                assert vb < 0.15, (dataset, k)
                assert eb < 0.15, (dataset, k)

    def test_table3_ordering(self):
        res = run_experiment("table3", ExperimentConfig(scale=0.15, seed=1))
        for dataset in ("livejournal", "twitter", "friendster"):
            assert res.data[("hash", dataset)] == pytest.approx(7 / 8, abs=0.02)
            assert res.data[("fennel", dataset)] < res.data[("hash", dataset)]
            assert res.data[("bpart", dataset)] < res.data[("hash", dataset)]

    def test_fig13_bpart_waits_least(self):
        res = run_experiment("fig13", ExperimentConfig(scale=0.15, seed=1))
        for m in (4, 8):
            for dataset in ("twitter", "friendster"):
                assert (
                    res.data[(m, "bpart", dataset)]
                    < res.data[(m, "chunk-v", dataset)]
                )

    def test_fig08_inverse_proportionality(self):
        res = run_experiment("fig08", ExperimentConfig(scale=0.15, seed=1))
        assert res.data["corr"] < -0.5


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out

    def test_run_one(self, capsys):
        from repro.cli import main

        assert main(["fig08", "--scale", "0.05", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "fig08" in out

    def test_unknown_id_fails(self, capsys):
        from repro.cli import main

        assert main(["nope", "--scale", "0.05"]) == 1
