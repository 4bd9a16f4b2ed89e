"""Heartbeat health state machine: detection, recovery, the ledger."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.serving import DEAD, HEALTHY, RECOVERING, SUSPECT, HealthMonitor


def monitor(**kw):
    defaults = dict(heartbeat_interval=0.02, suspect_after=2, dead_after=4)
    defaults.update(kw)
    return HealthMonitor(4, **defaults)


class TestValidation:
    def test_rejects_bad_thresholds(self):
        with pytest.raises(ConfigurationError):
            monitor(suspect_after=0)
        with pytest.raises(ConfigurationError):
            monitor(suspect_after=4, dead_after=4)
        with pytest.raises(ConfigurationError):
            HealthMonitor(0, heartbeat_interval=0.02, suspect_after=2, dead_after=4)
        with pytest.raises(ConfigurationError):
            monitor(heartbeat_interval=0.0)


class TestDetection:
    def test_beating_machine_stays_healthy(self):
        mon = monitor()
        for j in range(1, 20):
            mon.beat(0, j * 0.02)
            assert mon.check(0, j * 0.02) is None
        assert mon.state[0] == HEALTHY
        assert mon.ledger == []

    def test_missed_heartbeats_walk_to_suspect_then_dead(self):
        mon = monitor()
        mon.beat(0, 0.02)
        # silence from here: missed counts grow with the clock.
        assert mon.check(0, 0.04) is None  # 1 missed
        assert mon.check(0, 0.06) == SUSPECT  # 2 missed
        assert not mon.routable(0)
        assert mon.check(0, 0.08) is None  # 3 missed
        assert mon.check(0, 0.10) == DEAD  # 4 missed
        assert [ev.new for ev in mon.ledger] == [SUSPECT, DEAD]
        assert all(ev.cause == "missed_heartbeats" for ev in mon.ledger)

    def test_suspect_recovers_on_single_heartbeat(self):
        mon = monitor()
        mon.check(0, 0.04)
        assert mon.state[0] == SUSPECT
        mon.beat(0, 0.06)
        assert mon.state[0] == HEALTHY
        assert mon.routable(0)
        assert mon.ledger[-1].cause == "heartbeat"

    def test_big_silence_gap_fences_in_one_check(self):
        mon = monitor()
        assert mon.check(0, 1.0) == DEAD  # 50 missed: suspect AND dead
        assert [ev.new for ev in mon.ledger] == [SUSPECT, DEAD]

    def test_dead_machines_are_not_timeout_checked(self):
        mon = monitor()
        mon.check(0, 1.0)
        assert mon.check(0, 2.0) is None
        assert mon.state[0] == DEAD


class TestRecovery:
    def test_full_cycle_and_recovery_seconds(self):
        mon = monitor()
        mon.check(1, 1.0)  # dead at 1.0
        mon.transition(1, 1.1, RECOVERING, "restart")
        mon.transition(1, 1.35, HEALTHY, "rereplicated")
        assert mon.routable(1)
        assert mon.all_healthy()
        assert mon.recovery_seconds() == pytest.approx([0.35])
        assert mon.transition_counts() == {
            "dead->recovering": 1,
            "healthy->suspect": 1,
            "recovering->healthy": 1,
            "suspect->dead": 1,
        }

    def test_readmit_restarts_the_heartbeat_clock(self):
        mon = monitor()
        mon.check(1, 1.0)  # dead at 1.0, last heartbeat long ago
        mon.transition(1, 1.1, RECOVERING, "restart")
        mon.readmit(1, 1.35)
        assert mon.state[1] == HEALTHY
        assert mon.ledger[-1].as_row() == [1.35, 1, RECOVERING, HEALTHY, "rereplicated"]
        # the outage's silence is forgiven: one interval later it is not suspect
        assert mon.check(1, 1.37) is None
        assert mon.routable(1)
        with pytest.raises(SimulationError):
            mon.readmit(0, 1.4)  # only a recovering machine is readmitted

    def test_illegal_transitions_raise(self):
        mon = monitor()
        with pytest.raises(SimulationError):
            mon.transition(0, 0.1, DEAD, "skip-suspect")
        with pytest.raises(SimulationError):
            mon.transition(0, 0.1, RECOVERING, "not dead yet")
        mon.check(0, 1.0)  # dead
        with pytest.raises(SimulationError):
            mon.transition(0, 1.1, HEALTHY, "skip-recovering")


class TestAccounting:
    def test_state_seconds_partition_total_time(self):
        mon = monitor()
        mon.check(2, 1.0)  # healthy ends, suspect+dead stamped at 1.0
        mon.transition(2, 1.1, RECOVERING, "restart")
        mon.transition(2, 1.4, HEALTHY, "rereplicated")
        mon.finish(2.0)
        dwell = mon.state_seconds[2]
        assert sum(dwell.values()) == pytest.approx(2.0)
        assert dwell[DEAD] == pytest.approx(0.1)
        assert dwell[RECOVERING] == pytest.approx(0.3)
        # untouched machine: all healthy
        assert mon.state_seconds[0][HEALTHY] == pytest.approx(2.0)

    def test_ledger_rows_are_json_ready(self):
        mon = monitor()
        mon.check(0, 1.0)
        rows = mon.ledger_rows()
        assert rows == [
            [1.0, 0, HEALTHY, SUSPECT, "missed_heartbeats"],
            [1.0, 0, SUSPECT, DEAD, "missed_heartbeats"],
        ]
