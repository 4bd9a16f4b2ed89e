"""Tests for the chrome-trace exporter."""

from __future__ import annotations

import json

import pytest

from repro.cluster import BSPCluster
from repro.cluster.trace import to_chrome_trace, write_chrome_trace
from repro.engines.gemini import GeminiEngine, PageRank
from repro.graph import chung_lu
from repro.partition import HashPartitioner


class TestChromeTrace:
    @pytest.fixture(scope="class")
    def ledger(self):
        g = chung_lu(300, 6.0, rng=100)
        a = HashPartitioner().partition(g, 4).assignment
        return GeminiEngine(BSPCluster(4)).run(g, a, PageRank(3)).ledger

    def test_events_cover_machines_and_steps(self, ledger):
        events = to_chrome_trace(ledger)
        x_events = [e for e in events if e["ph"] == "X"]
        tids = {e["tid"] for e in x_events}
        assert tids == set(range(4))
        compute_events = [e for e in x_events if e["cat"] == "compute"]
        assert len(compute_events) == 3 * 4  # iterations × machines

    def test_durations_match_ledger(self, ledger):
        events = to_chrome_trace(ledger)
        total_compute_us = sum(
            e["dur"] for e in events if e.get("cat") == "compute"
        )
        assert total_compute_us == pytest.approx(
            ledger.compute_matrix.sum() * 1e6, rel=1e-9
        )

    def test_events_within_makespan(self, ledger):
        events = to_chrome_trace(ledger)
        end = max(e["ts"] + e["dur"] for e in events if e["ph"] == "X")
        assert end == pytest.approx(ledger.total_runtime * 1e6, rel=1e-9)

    def test_write_valid_json(self, ledger, tmp_path):
        p = tmp_path / "trace.json"
        write_chrome_trace(ledger, p, job_name="test-job")
        data = json.loads(p.read_text())
        assert "traceEvents" in data
        assert any(e.get("args", {}).get("name") == "test-job" for e in data["traceEvents"])
