"""Tests of the benchmark itself. Run with

    PYTHONPATH=src pytest benchmarks/e2e -q

(not part of the tier-1 suite: ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from catalogue import CATALOGUE, WORKLOADS  # noqa: E402
from harness import run_workload  # noqa: E402
from workloads import REGISTRY  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_py(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "benchmarks/e2e/run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


# -- BENCHMARK.json ------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["benchmarks/e2e"]
    assert len(BENCH["command"]) <= 32 and all(len(c) <= 200 for c in BENCH["command"])
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert 1 <= len(BENCH["end_to_end"]) <= 16 and 1 <= len(BENCH["per_layer"]) <= 128
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_benchmark_json_and_catalogue_name_the_same_metrics():
    listed = BENCH["end_to_end"] + BENCH["per_layer"]
    assert {m["name"] for m in listed} == set(CATALOGUE)
    for m in listed:
        entry = CATALOGUE[m["name"]]
        assert (m["unit"], m["better"]) == (entry.unit, entry.better), m["name"]
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    # what the driver gates must be defined on every workload
    for m in BENCH["end_to_end"]:
        assert CATALOGUE[m["name"]].on == WORKLOADS, m["name"]


# -- the driver form -----------------------------------------------------
@pytest.mark.parametrize("trace", (0, 1))
def test_driver_line_carries_every_listed_metric(trace):
    proc = run_py("--workload", "serve_loaded_k1", "--seed", "2", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0  # an end-to-end metric is never 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("out", "_work", "__pycache__"))
    proc = run_py("--workload", "partition_dense", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


# -- the suite -----------------------------------------------------------
@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    proc = run_py("--smoke", "--seed", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), out.parent, proc.stdout


def test_smoke_suite_reports_every_applicable_metric(smoke):
    doc, _, stdout = smoke
    assert doc["suite_seconds"] < 30  # 16 s on an idle 2-core box; headroom for a busy one
    for key in ("nproc", "affinity", "versions", "thread_pins", "malloc_pins", "scrubbed_env",
                "seed", "reps", "suite_seconds"):
        assert key in doc
    assert list(doc["workloads"]) == list(WORKLOADS)
    for name, w in doc["workloads"].items():
        expected = {m.name for m in CATALOGUE.values() if name in m.on}
        assert set(w["metrics"]) == expected, name
        for metric, row in w["metrics"].items():
            assert row["unit"] == CATALOGUE[metric].unit
            assert metric in stdout  # printed by name
        assert w["metrics"]["fail_share"]["value"] == 0, w["checks"]["failures"]
        assert w["items"] > 0 and w["info"]


def test_smoke_suite_writes_chrome_traces(smoke):
    doc, out_dir, stdout = smoke
    for name in WORKLOADS:
        events = json.loads((out_dir / f"trace_{name}.json").read_text())["traceEvents"]
        assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
        assert {"setup", "body", "probes"} <= {e["name"] for e in events}
        table = doc["workloads"][name]["trace"]["self_table"]
        assert "(unattributed)" in [row[0] for row in table]
        assert sum(row[2] for row in table) == pytest.approx(1.0)
    assert "(unattributed)" in stdout


def test_a_corrupted_digest_is_counted_as_a_failure():
    workload = REGISTRY["partition_dense"](smoke=True)
    honest = workload.body
    calls = []

    def corrupting(st, tr):
        out = honest(st, tr)
        calls.append(1)
        if len(calls) == 2:  # the warm-up was honest; the first timed rep is not
            out["digest"] = "0" * 64
        return out

    workload.body = corrupting
    doc = run_workload(workload, 1, seconds=0, reps=2, trace=False)
    assert doc["checks"]["failed"] == 1
    assert doc["metrics"]["fail_share"]["value"] > 0


# -- compare.py ----------------------------------------------------------
def test_compare_classifies_each_metric(smoke, tmp_path, capsys):
    doc = copy.deepcopy(smoke[0])
    a = tmp_path / "a.json"
    a.write_text(json.dumps(doc))
    assert compare.main([str(a), str(a)]) == 0
    assert "regressed 0" in capsys.readouterr().out

    def status(mutate) -> dict:
        changed = copy.deepcopy(doc)
        mutate(changed["workloads"]["serve_light_k1"]["metrics"])
        rows, _ = compare.compare(doc, changed)
        return {r[1]: r[5] for r in rows if r[0] == "serve_light_k1"}

    base = doc["workloads"]["serve_light_k1"]["metrics"]["wall_s"]
    base["samples"] = base["samples"][:1] * 3  # as if --reps 3

    def wall(*factors) -> str:
        scaled = [x * f for x, f in zip(base["samples"], factors)]
        return status(lambda m: m["wall_s"].update(samples=scaled))["wall_s"]

    assert wall(1.0, 1.0, 1.0) == "unchanged"
    assert wall(1.5, 1.4, 1.6) == "regressed"
    assert wall(0.5, 0.6, 0.5) == "improved"
    assert wall(0.9, 1.05, 1.1) == "unresolved"  # reps disagree by more than the bound
    assert wall(0.7, 0.95, 0.97) == "improved"  # wide, but every rep is better
    assert status(lambda m: m["sim_p99_s"].update(value=m["sim_p99_s"]["value"] * 1.001))["sim_p99_s"] == "regressed"
    assert status(lambda m: m["fail_share"].update(value=0.1))["fail_share"] == "regressed"
    assert status(lambda m: m["serving.simulator.batches"].update(value=1))["serving.simulator.batches"] == "changed"

    b = tmp_path / "b.json"
    worse = copy.deepcopy(doc)
    worse["workloads"]["analytics_bsp"]["metrics"]["fail_share"]["value"] = 0.5
    b.write_text(json.dumps(worse))
    assert compare.main([str(a), str(b)]) == 1
