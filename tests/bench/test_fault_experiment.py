"""Tests for the fault-recovery experiment, its cached workload, and the
``faults`` / ``trace`` CLI subcommands."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import ExperimentConfig, run_experiment
from repro.bench.artifacts import get_store
from repro.bench.workloads import PAPER_PARTITIONERS, run_fault_walk_job
from repro.cli import main
from repro.cluster.faults import CheckpointPolicy, Crash, FaultPlan
from repro.graph import twitter_like
from repro.partition import get_partitioner

TINY = ExperimentConfig(scale=0.05, seed=3)

# one crash, a straggler and checkpoints every two supersteps
PLAN = Path(__file__).parents[1] / "data" / "plans" / "fault-trace.json"


@pytest.fixture()
def walk_setup():
    g = twitter_like(scale=0.1, seed=2)
    a = get_partitioner("bpart", seed=2).partition(g, 4).assignment
    plan = FaultPlan(
        crashes=(Crash(machine=1, superstep=1),),
        checkpoint=CheckpointPolicy(interval=2),
        seed=5,
    )
    return g, a, plan


class TestFaultWalkJobCache:
    def test_cached_replay_is_byte_identical(self, walk_setup):
        g, a, plan = walk_setup
        fresh, fresh_rep = run_fault_walk_job(g, a, plan, walkers_per_vertex=1, seed=2)
        stats0 = get_store().stats.hits
        cached, cached_rep = run_fault_walk_job(g, a, plan, walkers_per_vertex=1, seed=2)
        assert get_store().stats.hits > stats0
        assert cached.ledger.to_json() == fresh.ledger.to_json()
        assert cached_rep.as_dict() == fresh_rep.as_dict()

    def test_disk_payload_reconstructs_full_ledger(self, walk_setup):
        """Drop the in-memory objects: the .npz payload alone must rebuild
        the extended ledger (events + masks) byte-identically."""
        g, a, plan = walk_setup
        fresh, fresh_rep = run_fault_walk_job(g, a, plan, walkers_per_vertex=1, seed=2)
        store = get_store()
        store._memory.clear()  # force the disk path
        cached, cached_rep = run_fault_walk_job(g, a, plan, walkers_per_vertex=1, seed=2)
        assert cached.ledger.to_json() == fresh.ledger.to_json()
        assert [e.kind for e in cached.ledger.events] == [
            e.kind for e in fresh.ledger.events
        ]
        assert cached_rep.as_dict() == fresh_rep.as_dict()
        assert (cached.final_positions == fresh.final_positions).all()

    def test_fault_spec_is_part_of_the_key(self, walk_setup):
        g, a, plan = walk_setup
        run_fault_walk_job(g, a, plan, walkers_per_vertex=1, seed=2)
        misses0 = get_store().stats.misses
        other = plan.with_recovery("restart")
        run_fault_walk_job(g, a, other, walkers_per_vertex=1, seed=2)
        # A different plan must be a different artifact, never a hit.
        assert get_store().stats.misses > misses0

    def test_separate_kind_from_plain_walks(self, walk_setup):
        g, a, plan = walk_setup
        run_fault_walk_job(g, a, plan, walkers_per_vertex=1, seed=2)
        by_kind = get_store().stats.by_kind
        assert "faultwalk" in by_kind
        assert by_kind["faultwalk"]["stores"] >= 1


class TestFaultExperiment:
    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory):
        import os

        from repro.bench import artifacts

        # Class-scoped cache dir (the autouse conftest fixture is
        # function-scoped and would isolate each test's store).
        cache = tmp_path_factory.mktemp("faults-cache")
        old = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        artifacts.reset_store()
        try:
            yield run_experiment("faults", TINY)
        finally:
            if old is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = old
            artifacts.reset_store()

    def test_all_partitioners_and_datasets_covered(self, outcome):
        for dataset in ("livejournal", "twitter"):
            for name in PAPER_PARTITIONERS:
                for metric in (
                    "baseline_runtime",
                    "restart_runtime",
                    "redistribute_runtime",
                    "recovery_seconds",
                    "survivor_edge_max_dev",
                    "degraded_waiting_ratio",
                ):
                    assert (dataset, name, metric) in outcome.data

    def test_faults_cost_time(self, outcome):
        for dataset in ("livejournal", "twitter"):
            for name in PAPER_PARTITIONERS:
                base = outcome.data[(dataset, name, "baseline_runtime")]
                assert outcome.data[(dataset, name, "restart_runtime")] > base
                assert outcome.data[(dataset, name, "redistribute_runtime")] > base

    def test_bpart_keeps_survivors_balanced(self, outcome):
        for dataset in ("livejournal", "twitter"):
            assert outcome.data[(dataset, "bpart", "survivor_edge_max_dev")] < 0.35
            assert (
                outcome.data[(dataset, "bpart", "degraded_waiting_ratio")]
                < outcome.data[(dataset, "chunk-v", "degraded_waiting_ratio")]
            )

    def test_checkpoint_sweep_monotone_io(self, outcome):
        # More frequent checkpoints → more checkpoint I/O.
        assert outcome.data[("sweep", 0, "checkpoint_seconds")] == 0.0
        assert (
            outcome.data[("sweep", 1, "checkpoint_seconds")]
            > outcome.data[("sweep", 2, "checkpoint_seconds")]
            > outcome.data[("sweep", 4, "checkpoint_seconds")]
        )

    def test_renders(self, outcome):
        text = outcome.render()
        assert "checkpoint interval sweep" in text
        assert "bpart" in text


class TestCli:
    def test_faults_subcommand(self, capsys):
        assert main(["faults", "--scale", "0.05", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Crash recovery" in out
        assert "bpart" in out

    def test_faults_json_is_deterministic_and_balanced(self, capsys, tmp_path):
        # The second run reads every artifact the first one stored on disk.
        from repro.bench import artifacts

        runs = []
        for name in ("run1.json", "run2.json"):
            artifacts.reset_store()
            assert main(["faults", "--scale", "0.05", "--json", str(tmp_path / name)]) == 0
            runs.append(json.loads((tmp_path / name).read_text())["results"][0])
        one, two = ({k: v for k, v in r.items() if k not in ("wall_time_s", "cache")} for r in runs)
        assert one == two, "fault experiment not deterministic across runs"
        assert runs[1]["cache"]["hits"] > 0 and runs[1]["cache"]["misses"] == 0
        data = one["data"]
        for dataset in ("livejournal", "twitter"):
            assert data[f"{dataset}/bpart/survivor_edge_max_dev"] < 0.35
            assert (
                data[f"{dataset}/bpart/degraded_waiting_ratio"]
                < data[f"{dataset}/chunk-v/degraded_waiting_ratio"]
            )

    TRACE = ["trace", "--dataset", "twitter", "--algo", "bpart", "--parts", "4",
             "--scale", "0.05", "--seed", "3", "--walkers", "1"]

    # Each test covers both paths `trace` runs: a walk app and a Gemini app.
    def test_trace_subcommand_with_plan(self, capsys, tmp_path):
        for app in ("deepwalk", "pagerank"):
            out_file = tmp_path / f"{app}.json"
            argv = self.TRACE + ["--app", app, "--plan", str(PLAN), "--out", str(out_file)]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "faults: 1 crash(es)" in out and "trace written" in out
            events = json.loads(out_file.read_text())["traceEvents"]
            kinds = {e["cat"] for e in events if e.get("ph") == "i"}
            assert {"crash", "recovery", "checkpoint", "straggler"} <= kinds, app

    def test_trace_subcommand_plain(self, capsys, tmp_path):
        for app in ("deepwalk", "pagerank"):
            out_file = tmp_path / f"{app}.json"
            assert main(self.TRACE + ["--app", app, "--out", str(out_file)]) == 0
            assert "faults:" not in capsys.readouterr().out
            events = json.loads(out_file.read_text())["traceEvents"]
            assert any(e["ph"] == "X" for e in events)
            assert not any(e["ph"] == "i" for e in events), app

    def test_trace_rejects_unknown_app(self, capsys, tmp_path):
        code = main(
            ["trace", "--dataset", "twitter", "--app", "nope", "--scale", "0.05"]
        )
        assert code == 2
