"""Replicated serving: failover, hedging, recovery, byte parity."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.graph import social_graph
from repro.partition.base import get_partitioner
from repro.resilience import ChaosPlan, ChaosRule, install_plan
from repro.serving import (
    SITE_HEARTBEAT_DROP,
    SITE_REPLICA_CRASH,
    ServingConfig,
    ServingReport,
    ServingSimulator,
    WorkloadSpec,
)

GOLDEN = Path(__file__).parent / "data" / "golden_serving_report.json"


@pytest.fixture(scope="module")
def graph():
    return social_graph(1500, 10.0, 2.2, rng=11)


@pytest.fixture(scope="module")
def assignment(graph):
    return get_partitioner("bpart", seed=0).partition(graph, 4).assignment


@pytest.fixture(scope="module")
def trace(graph):
    return WorkloadSpec(users=300, duration=0.5, rate=1500.0, seed=2).generate(graph)


def crash_plan(key="m1:h5"):
    return ChaosPlan(
        seed=7,
        rules=(
            ChaosRule(site=SITE_REPLICA_CRASH, kind="exception", match=key, rate=1.0),
        ),
    )


def run(assignment, trace, config, plan=None, seed=3):
    install_plan(plan)
    try:
        return ServingSimulator(assignment, config, seed=seed).run(trace)
    finally:
        install_plan(None)


class TestGoldenParity:
    """replication_factor=1 must reproduce pre-replication bytes."""

    def test_k1_report_matches_golden_bytes(self, graph, trace):
        spec = WorkloadSpec(users=300, duration=0.5, rate=1500.0, seed=2)
        report = ServingReport(
            spec, ServingConfig(), dataset="social-1500", num_parts=4
        )
        for algo in ("chunk-v", "bpart", "hash"):
            asg = get_partitioner(algo, seed=0).partition(graph, 4).assignment
            report.add(algo, ServingSimulator(asg, seed=3).run(trace))
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert json.loads(report.to_json()) == golden

    def test_default_config_digest_has_no_replication_block(self):
        doc = ServingConfig().to_dict()
        assert "replication" not in doc
        explicit = ServingConfig(replication_factor=1, hedge_after=0.0)
        assert explicit.digest() == ServingConfig().digest()
        assert "replication" in ServingConfig(replication_factor=2).to_dict()

    def test_k1_summary_has_no_replication_keys(self, assignment, trace):
        summary = ServingSimulator(assignment, seed=3).run(trace).summary()
        assert "availability" not in summary
        assert "replication" not in summary

    def test_config_from_dict_round_trips_replication(self):
        cfg = ServingConfig(replication_factor=3, hedge_after=0.004, dead_after=6)
        again = ServingConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert ServingConfig.from_dict(ServingConfig().to_dict()) == ServingConfig()


class TestFailover:
    def test_k2_availability_beats_k1_under_crash(self, assignment, trace):
        k1 = run(assignment, trace, ServingConfig(replication_factor=1), crash_plan())
        k2 = run(assignment, trace, ServingConfig(replication_factor=2), crash_plan())
        assert k1.crashes == k2.crashes == 1
        assert k2.availability() > k1.availability()
        assert k1.unavailable_shed > 0  # no surviving replica at K=1
        assert k2.unavailable_shed == 0
        assert int(k2.shed.sum()) < int(k1.shed.sum())

    def test_crash_walks_the_ledger_and_restores_factor(self, assignment, trace):
        result = run(
            assignment, trace, ServingConfig(replication_factor=2), crash_plan()
        )
        assert result.health_transitions == {
            "dead->recovering": 1,
            "healthy->suspect": 1,
            "recovering->healthy": 1,
            "suspect->dead": 1,
        }
        assert result.restored
        assert len(result.recovery_seconds) == 1
        assert result.recovery_seconds[0] > 0
        assert result.rereplication_bytes > 0
        assert result.rereplication_transfers > 0
        # ledger rows are time-ordered [time, machine, old, new, cause]
        times = [row[0] for row in result.health_ledger]
        assert times == sorted(times)
        assert all(row[1] == 1 for row in result.health_ledger)

    def test_crashed_machine_serves_nothing_while_down(self, assignment, trace):
        result = run(
            assignment, trace, ServingConfig(replication_factor=2), crash_plan()
        )
        crash_time = 5 * ServingConfig().heartbeat_interval  # key m1:h5
        healed = [row[0] for row in result.health_ledger if row[3] == "healthy"]
        assert len(healed) == 1
        done = ~result.shed & (result.machine_of_query == 1)
        completion = trace.times + result.latency
        downtime = done & (completion > crash_time) & (completion < healed[0])
        assert done.any()  # machine 1 did serve before the crash
        assert not downtime.any()  # and nothing while it was down
        assert result.redispatched > 0  # the stranded queries moved

    def test_same_seed_is_byte_identical(self, assignment, trace):
        cfg = ServingConfig(replication_factor=2)
        a = run(assignment, trace, cfg, crash_plan())
        b = run(assignment, trace, cfg, crash_plan())
        assert json.dumps(a.summary(), sort_keys=True) == json.dumps(
            b.summary(), sort_keys=True
        )
        assert a.health_ledger == b.health_ledger
        np.testing.assert_array_equal(a.latency, b.latency)
        np.testing.assert_array_equal(a.machine_of_query, b.machine_of_query)

    def test_plan_digest_recorded(self, assignment, trace):
        result = run(assignment, trace, ServingConfig(replication_factor=2))
        assert len(result.plan_digest) == 64
        k3 = run(assignment, trace, ServingConfig(replication_factor=3))
        assert k3.plan_digest != result.plan_digest


class TestHedging:
    def test_hedge_bounds_the_failover_spike(self, assignment, trace):
        plain = run(
            assignment, trace, ServingConfig(replication_factor=2), crash_plan()
        )
        hedged = run(
            assignment,
            trace,
            ServingConfig(replication_factor=2, hedge_after=0.005),
            crash_plan(),
        )
        assert hedged.hedges > 0
        assert hedged.hedge_wins > 0
        # the detection-gap spike is cut to roughly the hedge budget
        assert float(hedged.completed_latencies()[-1]) < float(
            plain.completed_latencies()[-1]
        )

    def test_hedging_alone_adds_the_replication_block(self, assignment, trace):
        result = run(
            assignment, trace, ServingConfig(replication_factor=2, hedge_after=0.001)
        )
        assert result.replicated
        assert result.completed == result.num_queries
        assert {"availability", "replication"} <= set(result.summary())


class TestHeartbeatDrops:
    def test_drops_cause_false_positive_fencing_and_heal(self, assignment, trace):
        plan = ChaosPlan(
            seed=7,
            rules=(
                ChaosRule(
                    site=SITE_HEARTBEAT_DROP, kind="exception", match="m2:h", rate=0.7
                ),
            ),
        )
        result = run(assignment, trace, ServingConfig(replication_factor=2), plan)
        assert result.heartbeat_drops > 0
        assert result.crashes == 0  # nothing actually died
        assert result.health_transitions.get("healthy->suspect", 0) > 0
        # single-beat recovery and/or full fencing cycles, all healed
        assert result.restored

    def test_replica_chaos_adds_the_block_at_k1(self, assignment, trace):
        result = run(assignment, trace, ServingConfig(), crash_plan())
        assert result.replicated
        assert result.replication_factor == 1
        assert result.crashes == 1
        assert result.summary()["replication"]["crashes"] == 1


class TestEmptyCompletionGuards:
    """A 100%-shed drill serialises null, not a fake zero latency."""

    def _all_shed_result(self, assignment, trace):
        result = ServingSimulator(assignment, seed=3).run(trace)
        result.shed = np.ones_like(result.shed)
        result.latency = np.full_like(result.latency, np.nan)
        return result

    def test_quantiles_and_mean_are_nan(self, assignment, trace):
        result = self._all_shed_result(assignment, trace)
        assert np.isnan(result.latency_quantile(0.99))
        assert result.summary()["latency_mean"] is None
        assert np.isnan(result.throughput)
        assert result.completed == 0

    def test_summary_serialises_null(self, assignment, trace):
        result = self._all_shed_result(assignment, trace)
        summary = result.summary()
        for key in (
            "latency_p50",
            "latency_p99",
            "latency_mean",
            "latency_max",
            "throughput",
        ):
            assert summary[key] is None
        text = json.dumps(summary, sort_keys=True)
        assert "NaN" not in text and "null" in text
        assert json.loads(text)["latency_p99"] is None

    def test_report_renders_dashes_for_null(self, assignment, trace):
        spec = WorkloadSpec(users=300, duration=0.5, rate=1500.0, seed=2)
        report = ServingReport(spec, ServingConfig(), dataset="x", num_parts=4)
        report.add("bpart", self._all_shed_result(assignment, trace))
        text = report.table().render()
        assert "-" in text
