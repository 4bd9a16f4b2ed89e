"""End-to-end drills through the CLI, run in process (``repro.cli.main``).

Each module-scoped fixture runs one drill's commands once, in its own
directory and artifact cache, and the tests read what they wrote. Each
run starts from a reset artifact store, as a fresh process would, so a
second run loads the first one's artifacts back from disk. The first run
of every pair collects telemetry and the second does not, so
"byte-identical" also covers telemetry on against off.
The chaos and fault plans are the JSON files in ``tests/data/plans/``.

The names the drills' runs emit are checked against docs/telemetry.md's
catalogue, one row per series or span.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro import telemetry
from repro.bench import artifacts
from repro.cli import main
from tests.telemetry.test_telemetry import _PROM_LINE

ROOT = Path(__file__).resolve().parents[1]
PLANS = ROOT / "tests" / "data" / "plans"


class Drill:
    """A drill's directory, with the telemetry names its runs emitted."""

    def __init__(self, path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
        self.path, self.names, self._env = path, set(), monkeypatch

    def __truediv__(self, name: str) -> Path:
        return self.path / name

    def json(self, name: str):
        return json.loads((self.path / name).read_text(encoding="utf-8"))

    def run(self, *argv, cache: str = "cache") -> None:
        """One CLI invocation as a fresh process sees the artifact cache ``cache``."""
        self._env.setenv("REPRO_CACHE_DIR", str(self.path / cache))
        artifacts.reset_store()
        assert main([str(a) for a in argv]) == 0, argv
        reg = telemetry.registry()
        self.names |= {m.name for m in reg.metrics()} | {s["name"] for s in reg.spans}
        telemetry.set_enabled(False)
        telemetry.reset()


@pytest.fixture(scope="module")
def drill(tmp_path_factory):
    """``drill(name)``: a new :class:`Drill`; the environment is restored after the module."""
    with pytest.MonkeyPatch.context() as mp:
        yield lambda name: Drill(tmp_path_factory.mktemp(name), mp)
    artifacts.reset_store()


def _strip(result: dict, *keys: str) -> dict:
    return {k: v for k, v in result.items() if k not in keys}


# ----------------------------------------------------------------------
# bench: cold/warm parity, a chaos run, resume
# ----------------------------------------------------------------------
BENCH = ["--scale", "0.25"]


@pytest.fixture(scope="module")
def bench(drill):
    d = drill("bench")
    # parallel workers fill the cache; a serial run reads their artifacts
    d.run("bench", "fig03", "fig06", "table2", "table3", *BENCH, "--jobs", "2",
          "--telemetry", d / "cold-telemetry.json", "--json", d / "cold.json")
    d.cold_npz = sorted((d / "cache").rglob("*.npz"))
    d.run("bench", "fig03", "fig06", "table2", "table3", *BENCH, "--json", d / "warm.json")
    # a seeded worker kill and cache corruption, capped below the retry budget
    d.run("bench", "fig03", "fig06", "table3", *BENCH, "--jobs", "2", "--retries", "2",
          "--chaos", PLANS / "chaos-bench.json", "--journal", d / "journal.jsonl",
          "--telemetry", d / "chaos-telemetry.json", "--json", d / "chaos.json")
    # fig08 has no journal record, so it runs; the other three replay
    d.run("bench", "fig03", "fig06", "table3", "fig08", *BENCH, "--resume", "--journal",
          d / "journal.jsonl", "--telemetry", d / "resume-telemetry.json", "--json", d / "resume.json")
    return d


def test_bench_warm_run_reads_the_parallel_cold_run(bench):
    assert bench.cold_npz, "the parallel cold run stored no artifacts"
    cold, warm = bench.json("cold.json")["results"], bench.json("warm.json")["results"]
    assert sum(r["cache"]["hits"] for r in warm) > 0
    assert [r["experiment_id"] for r in cold] == [r["experiment_id"] for r in warm]
    for c, w in zip(cold, warm):
        if c["experiment_id"] != "table2":  # measures fresh wall clocks by design
            assert _strip(c, "wall_time_s", "cache") == _strip(w, "wall_time_s", "cache")


def test_bench_jobs_telemetry_is_the_supervisors_only(bench):
    # as `bench --help` and docs/telemetry.md say: under --jobs the experiments run and
    # count in the workers, so the cold run's snapshot has no bench.experiments; the
    # serial resume run (fig08 runs in process) has it
    def experiments(name):
        return [k for k in bench.json(name)["counters"] if k.startswith("bench.experiments{")]

    assert experiments("cold-telemetry.json") == []
    assert experiments("resume-telemetry.json") == ['bench.experiments{ok="true"}']


def test_bench_chaos_run_reproduces_the_clean_run(bench):
    clean = {r["experiment_id"]: r for r in bench.json("cold.json")["results"]}
    chaos = bench.json("chaos.json")["results"]
    assert [r["experiment_id"] for r in chaos] == ["fig03", "fig06", "table3"]
    for r in chaos:
        assert _strip(r, "wall_time_s", "cache", "resumed") == _strip(
            clean[r["experiment_id"]], "wall_time_s", "cache", "resumed")
    counters = bench.json("chaos-telemetry.json")["counters"]
    assert counters.get("bench.runner.worker_deaths", 0) >= 1, "the plan never killed a worker"
    assert counters.get("bench.runner.requeues", 0) >= 1, "the killed experiment never requeued"


def test_bench_resume_runs_only_what_the_journal_lacks(bench):
    results = bench.json("resume.json")["results"]
    assert {r["experiment_id"] for r in results if r.get("resumed")} == {"fig03", "fig06", "table3"}
    assert {r["experiment_id"] for r in results if not r.get("resumed")} == {"fig08"}


# ----------------------------------------------------------------------
# metrics: Prometheus text and the deterministic JSON export
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def metrics(drill):
    d = drill("metrics")
    argv = ["metrics", "--dataset", "twitter", "--scale", "0.25", "--algo", "bpart",
            "--parts", "8", "--app", "pagerank"]
    d.run(*argv, "--format", "prom", "--out", d / "metrics.prom")
    for name in ("run1.json", "run2.json"):  # the second warm from the first's artifacts
        d.run(*argv, "--format", "json", "--deterministic-only", "--out", d / name)
    return d


def test_metrics_prometheus_export_parses(metrics):
    lines = (metrics / "metrics.prom").read_text(encoding="utf-8").splitlines()
    assert lines
    for line in lines:
        assert _PROM_LINE.match(line), f"bad exposition line: {line!r}"


def test_metrics_deterministic_json_is_byte_identical(metrics):
    assert (metrics / "run1.json").read_bytes() == (metrics / "run2.json").read_bytes()


# ----------------------------------------------------------------------
# serve: per-seed byte identity, chaos, the K=2 crash drill
# ----------------------------------------------------------------------
SERVE = ["serve", "--dataset", "livejournal", "--scale", "0.25", "--duration", "0.5"]


@pytest.fixture(scope="module")
def serve(drill):
    d = drill("serve")
    runs = {  # each twice, the second warm from the servetrace cache
        "seed0": ["--algos", "chunk-v,bpart,hash", "--seed", "0"],
        "seed5": ["--algos", "chunk-v,bpart,hash", "--seed", "5"],
        "k2": ["--algos", "chunk-v,bpart,hash", "--seed", "0", "--replication", "2"],
        # machine slowdowns and cache flushes under live traffic
        "chaos": ["--algos", "bpart,hash", "--seed", "0", "--chaos", PLANS / "chaos-serving.json"],
    }
    for name, argv in runs.items():
        d.run(*SERVE, *argv, "--telemetry", d / f"{name}-telemetry.json", "--out", d / f"{name}-a.json")
        d.run(*SERVE, *argv, "--out", d / f"{name}-b.json")
    for k in (1, 2):  # machine 1 dies at heartbeat tick 5
        d.run(*SERVE, "--algos", "bpart", "--seed", "0", "--replication", k,
              "--chaos", PLANS / "chaos-crash.json", "--telemetry", d / f"crash-k{k}-telemetry.json",
              "--out", d / f"crash-k{k}.json")
    return d


@pytest.mark.parametrize("name", ["seed0", "seed5", "k2", "chaos"])
def test_serve_report_is_byte_identical_per_seed(serve, name):
    assert (serve / f"{name}-a.json").read_bytes() == (serve / f"{name}-b.json").read_bytes()


def test_serve_seeds_differ(serve):
    assert (serve / "seed0-a.json").read_bytes() != (serve / "seed5-a.json").read_bytes()


def test_serving_chaos_degrades_with_bounded_shed(serve):
    chaos, clean = serve.json("chaos-a.json")["entries"], serve.json("seed0-a.json")["entries"]
    assert set(chaos) == {"bpart", "hash"}
    for name, entry in chaos.items():
        assert entry["completed"] > 0, name
        assert entry["shed_rate"] < 0.5, name
        assert entry["degraded_batches"] + entry["cache_flushes"] > 0, f"{name}: the plan never fired"
        assert entry["latency_p99"] > clean[name]["latency_p99"], f"{name}: p99 did not inflate"


def test_crash_drill_k2_beats_k1_and_restores_the_factor(serve):
    k1, k2 = (serve.json(f"crash-k{k}.json")["entries"]["bpart"] for k in (1, 2))
    assert k1["replication"]["crashes"] == k2["replication"]["crashes"] == 1
    assert k1["availability"] < 1.0, "K=1 hid a machine crash"
    assert k2["availability"] > k1["availability"]
    for entry in (k1, k2):
        rep = entry["replication"]
        for edge in ("suspect->dead", "dead->recovering", "recovering->healthy"):
            assert rep["transitions"].get(edge) == 1, edge
        assert rep["restored"] is True
        assert rep["rereplication_bytes"] > 0
        assert rep["recovery_seconds"]


# ----------------------------------------------------------------------
# churn: the repartition daemon's ledger
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def churn(drill):
    d = drill("churn")
    argv = ["churn", "--vertices", "1200", "--churn", "1200"]
    # each seed-7 run in its own cache, so both compute rather than replay
    d.run(*argv, "--seed", "7", "--baselines", "--telemetry", d / "telemetry.json",
          "--out", d / "ledger-a.json", cache="cache-a")
    d.run(*argv, "--seed", "7", "--out", d / "ledger-b.json", cache="cache-b")
    d.run(*argv, "--seed", "8", "--out", d / "ledger-c.json", cache="cache-b")
    return d


def test_churn_ledger_is_byte_identical_per_seed(churn):
    a, b, c = ((churn / f"ledger-{x}.json").read_bytes() for x in "abc")
    assert a == b
    assert a != c


def test_churn_budget_and_cut_safety_hold_in_every_epoch(churn):
    doc = churn.json("ledger-a.json")
    assert doc["schema"] == "repartition-epoch/v1"
    assert doc["epochs"]
    for rec in doc["epochs"]:
        assert rec["migrations"] <= rec["budget"], rec["epoch"]
        assert len(rec["moves"]) == rec["migrations"], rec["epoch"]
        assert rec["edge_cut_after"] <= rec["edge_cut_before"] + 1e-9, rec["epoch"]
    assert doc["epochs"][-1]["ari_after"] > 0.05, "the daemon never left the noise floor"


# ----------------------------------------------------------------------
# the telemetry catalogue
# ----------------------------------------------------------------------
_ROW = re.compile(r"^\| (`[^|]*) \|")
_ONE = re.compile(r"`([a-z_]+(\.[a-z_]+)*)(\{[a-z_,]+\})?`")


def _catalogue() -> list[str]:
    """The first cell of every series row of docs/telemetry.md (it starts with a backtick)."""
    text = (ROOT / "docs" / "telemetry.md").read_text(encoding="utf-8")
    return [m.group(1) for line in text.splitlines() if (m := _ROW.match(line))]


def test_every_catalogue_row_names_one_series():
    rows = _catalogue()
    assert rows
    assert [r for r in rows if not _ONE.fullmatch(r)] == []
    names = [_ONE.fullmatch(r).group(1) for r in rows]
    assert len(names) == len(set(names)), "a name has two rows"


def test_every_name_the_drills_emit_is_a_catalogue_row(bench, metrics, serve, churn):
    emitted = bench.names | metrics.names | serve.names | churn.names
    assert "serving.event_loop" in emitted and "bench.runner.requeues" in emitted
    assert sorted(emitted - {r.strip("`").split("{")[0] for r in _catalogue()}) == []
