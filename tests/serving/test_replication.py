"""Replica placement: anti-affinity, 2D balance, canonical plans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, PartitionError
from repro.graph import social_graph
from repro.partition.base import get_partitioner
from repro.serving import ReplicaPlan, plan_replicas
from repro.serving.replication import PLAN_SCHEMA, ensure_within_slack


@pytest.fixture(scope="module")
def assignment():
    graph = social_graph(1500, 10.0, 2.2, rng=11)
    return get_partitioner("bpart", seed=0).partition(graph, 8).assignment


class TestPlanReplicas:
    @pytest.mark.parametrize("factor", [1, 2, 3, 8])
    def test_every_partition_has_factor_distinct_holders(self, assignment, factor):
        plan = plan_replicas(assignment, factor)
        for p, holders in enumerate(plan.holders):
            assert len(holders) == factor
            assert len(set(holders)) == factor  # anti-affinity
            assert holders[0] == p  # primary first

    def test_factor_one_is_identity_routing(self, assignment):
        plan = plan_replicas(assignment, 1)
        assert plan.holders == tuple((p,) for p in range(8))
        np.testing.assert_array_equal(
            np.asarray(plan.hosted_v), assignment.vertex_counts
        )
        np.testing.assert_array_equal(
            np.asarray(plan.hosted_e), assignment.edge_counts
        )

    def test_hosted_loads_account_every_replica(self, assignment):
        plan = plan_replicas(assignment, 3)
        v = assignment.vertex_counts
        e = assignment.edge_counts
        assert sum(plan.hosted_v) == 3 * int(v.sum())
        assert sum(plan.hosted_e) == 3 * int(e.sum())
        for m in range(8):
            parts = plan.partitions_of(m)
            assert plan.hosted_v[m] == int(v[list(parts)].sum())
            assert plan.hosted_e[m] == int(e[list(parts)].sum())

    def test_two_dimensional_balance_within_slack(self, assignment):
        for factor in (2, 3):
            ratios = plan_replicas(assignment, factor, slack=0.5).balance()
            assert ratios["vertex_ratio"] <= 1.5
            assert ratios["edge_ratio"] <= 1.5

    def test_deterministic_and_digest_stable(self, assignment):
        a = plan_replicas(assignment, 2)
        b = plan_replicas(assignment, 2)
        assert a == b
        assert a.digest() == b.digest()
        assert a.digest() != plan_replicas(assignment, 3).digest()

    def test_factor_out_of_range_rejected(self, assignment):
        with pytest.raises(ConfigurationError):
            plan_replicas(assignment, 0)
        with pytest.raises(ConfigurationError):
            plan_replicas(assignment, 9)  # only 8 machines

    def test_negative_slack_rejected(self, assignment):
        with pytest.raises(ConfigurationError, match="slack"):
            plan_replicas(assignment, 2, slack=-0.1)

    def test_overloaded_plan_violates_slack(self):
        # Hand-built: machine 0 hosts 100 of 101 vertices (ratio ~1.98)
        # while the primaries were balanced (base ratio 1.0) — the
        # placer added all of that skew, so the guard must fire.
        plan = ReplicaPlan(
            num_machines=2,
            replication_factor=1,
            holders=((0,), (1,)),
            hosted_v=(100, 1),
            hosted_e=(10, 10),
        )
        with pytest.raises(PartitionError, match="balance slack"):
            ensure_within_slack(plan, 0.5)
        ensure_within_slack(plan, 1.0)  # a looser budget admits it

    def test_skewed_primaries_do_not_trip_the_guard(self):
        # chunk-style partitioners ship edge-skewed primaries; the
        # slack bounds what replication ADDS, not the inherited skew.
        graph = social_graph(1500, 10.0, 2.2, rng=11)
        skewed = get_partitioner("chunk-v", seed=0).partition(graph, 8).assignment
        base = float(
            skewed.edge_counts.max() / skewed.edge_counts.mean()
        )
        assert base > 1.5  # the absolute bound would reject this
        plan = plan_replicas(skewed, 2, slack=0.5)
        assert plan.balance()["edge_ratio"] <= 1.5 * base

    def test_holders_match_partitions_of(self, assignment):
        plan = plan_replicas(assignment, 2)
        for p in range(8):
            for m in plan.holders[p]:
                assert p in plan.partitions_of(m)


class TestPlanSerialisation:
    def test_json_round_trip(self, assignment):
        plan = plan_replicas(assignment, 2)
        again = ReplicaPlan.from_json(plan.to_json())
        assert again == plan
        assert again.digest() == plan.digest()

    def test_schema_tag_required(self, assignment):
        plan = plan_replicas(assignment, 2)
        doc = plan.to_json().replace(PLAN_SCHEMA, "replica-plan/v99")
        with pytest.raises(ConfigurationError, match="schema"):
            ReplicaPlan.from_json(doc)
        with pytest.raises(ConfigurationError):
            ReplicaPlan.from_json("not json")
