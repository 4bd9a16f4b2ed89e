"""Tests for the Chrome-tracing exporter (`repro.cluster.trace`)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster import BSPCluster, TimingLedger, to_chrome_trace, write_chrome_trace
from repro.cluster.faults import CheckpointPolicy, Crash, FaultPlan
from repro.engines.knightking import DeepWalk, WalkEngine
from repro.graph import chung_lu
from repro.partition import get_partitioner


def _ledger():
    ledger = TimingLedger(3)
    ledger.record(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.0, 0.5]))
    ledger.record(np.array([2.0, 2.0, 2.0]), np.array([0.0, 1.0, 0.0]))
    return ledger


def _x_events(events):
    return [e for e in events if e["ph"] == "X"]


class TestToChromeTrace:
    def test_metadata_names_machines(self):
        events = to_chrome_trace(_ledger(), job_name="demo")
        meta = [e for e in events if e["ph"] == "M"]
        assert {"process_name"} == {e["name"] for e in meta if "tid" not in e}
        tracks = {e["tid"]: e["args"]["name"] for e in meta if "tid" in e}
        assert tracks == {0: "machine-0", 1: "machine-1", 2: "machine-2"}

    def test_per_machine_tracks_and_ordering(self):
        events = _x_events(to_chrome_trace(_ledger()))
        for machine in range(3):
            ts = [e["ts"] for e in events if e["tid"] == machine]
            assert ts == sorted(ts)
        assert {e["tid"] for e in events} == {0, 1, 2}

    def test_segments_fill_superstep_exactly(self):
        """compute + comm + wait spans [t0, t0 + duration] on every track."""
        ledger = _ledger()
        events = _x_events(to_chrome_trace(ledger))
        t0 = 0.0
        for step, it in enumerate(ledger.iterations):
            for machine in range(ledger.num_machines):
                segs = sorted(
                    (e for e in events if e["tid"] == machine and e["name"].endswith(f"[{step}]")),
                    key=lambda e: e["ts"],
                )
                assert segs[0]["ts"] == pytest.approx(t0 * 1e6)
                cursor = segs[0]["ts"]
                for e in segs:  # abutting, no overlap, no gap
                    assert e["ts"] == pytest.approx(cursor)
                    cursor = e["ts"] + e["dur"]
                assert cursor == pytest.approx((t0 + it.duration) * 1e6)
            t0 += it.duration

    def test_wait_segment_is_the_barrier_gap(self):
        ledger = _ledger()
        events = _x_events(to_chrome_trace(ledger))
        waits = [e for e in events if e["cat"] == "wait" and e["name"] == "wait[0]"]
        by_machine = {e["tid"]: e["dur"] for e in waits}
        # Machine 2 is the straggler of superstep 0: it has no wait event.
        assert 2 not in by_machine
        assert by_machine[0] == pytest.approx(2.0e6)
        assert by_machine[1] == pytest.approx(1.5e6)

    def test_zero_length_segments_dropped(self):
        events = _x_events(to_chrome_trace(_ledger()))
        assert all(e["dur"] > 0 for e in events)
        # Machine 1 had 0 comm in superstep 0.
        assert not any(e["name"] == "comm[0]" and e["tid"] == 1 for e in events)

    def test_event_markers_render_as_instants(self):
        ledger = _ledger()
        ledger.add_event("straggler", superstep=0, machine=1, factor=3.0)
        ledger.add_event("checkpoint", superstep=1, seconds=0.5)
        events = to_chrome_trace(ledger)
        inst = {e["name"]: e for e in events if e["ph"] == "i"}
        s = inst["straggler[0]"]
        assert s["tid"] == 1 and s["s"] == "t"
        assert s["ts"] == pytest.approx(0.0)  # start of its superstep
        assert s["args"]["factor"] == 3.0
        c = inst["checkpoint[1]"]
        assert c["s"] == "g"  # cluster-wide marker
        # Barrier events sit at the end of their superstep.
        durations = [it.duration for it in ledger.iterations]
        assert c["ts"] == pytest.approx(sum(durations) * 1e6)

    def test_out_of_range_event_pinned_to_end(self):
        ledger = _ledger()
        ledger.add_event("crash", superstep=99, machine=0)
        events = to_chrome_trace(ledger)
        inst = [e for e in events if e["ph"] == "i"]
        total = sum(it.duration for it in ledger.iterations)
        assert inst[0]["ts"] == pytest.approx(total * 1e6)


class TestFaultTrace:
    def test_fault_run_has_markers_and_masked_tracks(self):
        g = chung_lu(400, 8.0, 2.3, rng=4)
        a = get_partitioner("bpart", seed=1).partition(g, 4).assignment
        plan = FaultPlan(
            crashes=(Crash(machine=1, superstep=1),),
            checkpoint=CheckpointPolicy(interval=2),
            seed=3,
        )
        cluster = BSPCluster(4, plan, graph=g, assignment=a)
        WalkEngine(cluster, seed=1).run(g, a, DeepWalk(), walkers_per_vertex=1, max_steps=3)
        events = to_chrome_trace(cluster.ledger)
        kinds = {e["cat"] for e in events if e["ph"] == "i"}
        assert {"crash", "recovery", "checkpoint"} <= kinds
        crash = next(e for e in events if e["ph"] == "i" and e["cat"] == "crash")
        assert crash["tid"] == 1
        # After the crash superstep, machine 1's track goes silent.
        last_iter = cluster.ledger.num_iterations - 1
        assert not any(
            e["ph"] == "X" and e["tid"] == 1 and e["name"].endswith(f"[{last_iter}]")
            for e in events
        )


class TestWriteChromeTrace:
    def test_file_round_trip(self, tmp_path):
        ledger = _ledger()
        ledger.add_event("crash", superstep=1, machine=2)
        path = tmp_path / "trace.json"
        write_chrome_trace(ledger, path, job_name="roundtrip")
        payload = json.loads(path.read_text())
        assert payload["traceEvents"] == to_chrome_trace(ledger, job_name="roundtrip")
