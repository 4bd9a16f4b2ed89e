"""Tests for the fault-injection subsystem (plan DSL, checkpoint cost,
recovery planners, and a :class:`BSPCluster` executing a plan)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import BSPCluster
from repro.cluster.faults import (
    CheckpointCostModel,
    CheckpointPolicy,
    Crash,
    DegradedLink,
    FaultPlan,
    Straggler,
    plan_redistribute,
    plan_restart,
)
from repro.engines.knightking import DeepWalk, WalkEngine
from repro.errors import ConfigurationError, SimulationError
from repro.partition import get_partitioner

MACHINES = 4

STANDARD_PLAN = FaultPlan(
    crashes=(Crash(machine=1, superstep=2),),
    stragglers=(Straggler(machine=0, start=0, duration=2, factor=3.0),),
    checkpoint=CheckpointPolicy(interval=2),
    recovery="redistribute",
    seed=7,
)


@pytest.fixture(scope="module")
def job():
    """A partitioned graph shared by all cluster tests."""
    from repro.graph import chung_lu

    g = chung_lu(800, 10.0, 2.3, rng=5)
    a = get_partitioner("bpart", seed=2).partition(g, MACHINES).assignment
    return g, a


def _run_walk(cluster, g, a, *, seed=3, steps=4):
    engine = WalkEngine(cluster, seed=seed)
    return engine.run(g, a, DeepWalk(), walkers_per_vertex=2, max_steps=steps)


class TestFaultPlan:
    def test_json_round_trip_is_identity(self):
        plan = STANDARD_PLAN
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert again.to_json() == plan.to_json()
        assert again.digest() == plan.digest()

    def test_digest_distinguishes_plans(self):
        assert STANDARD_PLAN.digest() != FaultPlan().digest()
        assert (
            STANDARD_PLAN.digest()
            != STANDARD_PLAN.with_recovery("restart").digest()
        )

    def test_zero_fault_flags(self):
        assert not FaultPlan().needs_state
        assert STANDARD_PLAN.needs_state
        # Stragglers alone perturb timing but need no state.
        assert not FaultPlan(stragglers=(Straggler(machine=0, start=0),)).needs_state

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(recovery="teleport")
        with pytest.raises(ConfigurationError):
            FaultPlan(
                crashes=(Crash(machine=0, superstep=1), Crash(machine=0, superstep=2))
            )
        with pytest.raises(ConfigurationError):
            FaultPlan(stragglers=(Straggler(machine=0, start=0, factor=0.0),))
        with pytest.raises(ConfigurationError):
            FaultPlan(degraded_links=(DegradedLink(src=1, dst=1),))
        with pytest.raises(ConfigurationError):
            STANDARD_PLAN.validate_for(1)  # machine 1 outside a 1-machine cluster
        with pytest.raises(ConfigurationError):
            FaultPlan(crashes=(Crash(machine=0, superstep=0),)).validate_for(1)

    def test_from_json_rejects_other_formats(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json('{"format": "something-else"}')

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"degraded_links":[{"src":0,"dst":1,"duration":0}]}', "link duration"),
            ('{"degraded_links":[{"src":0,"dst":1,"duration":-2}]}', "link duration"),
            ('{"degraded_links":[{"src":0,"dst":1,"start":-1}]}', "link start"),
            ('{"stragglers":[{"machine":0,"start":-4,"duration":2}]}', "straggler start"),
        ],
    )
    def test_windows_that_never_open_are_rejected(self, text, named):
        # each of these parsed and injected nothing
        with pytest.raises(ConfigurationError, match=named):
            FaultPlan.from_json(text)

    def test_straggler_and_link_windows(self):
        s = Straggler(machine=0, start=2, duration=2)
        assert not s.active_at(1) and s.active_at(2) and s.active_at(3)
        assert not s.active_at(4)
        open_ended = DegradedLink(src=0, dst=1, start=1, duration=None)
        assert not open_ended.active_at(0)
        assert open_ended.active_at(100)

    def test_checkpoint_cadence(self):
        p = CheckpointPolicy(interval=2)
        assert [t for t in range(6) if p.due_after(t)] == [1, 3, 5]
        assert not any(CheckpointPolicy(interval=0).due_after(t) for t in range(6))


class TestCheckpointCostModel:
    def test_cost_scales_with_state(self):
        m = CheckpointCostModel(fixed_seconds=0.0)
        small = m.checkpoint_seconds(100.0, 100.0)
        assert m.checkpoint_seconds(200.0, 200.0) == pytest.approx(2 * small)
        assert m.restore_seconds(100.0, 100.0) == pytest.approx(small)

    def test_read_bandwidth_override(self):
        m = CheckpointCostModel(write_bandwidth=1e6, read_bandwidth=2e6, fixed_seconds=0.0)
        assert m.restore_seconds(1e6 / 16, 0.0) == pytest.approx(
            m.checkpoint_seconds(1e6 / 16, 0.0) / 2
        )

    def test_validation(self):
        with pytest.raises(Exception):
            CheckpointCostModel(write_bandwidth=0.0)


class TestRecoveryPlanners:
    def test_restart_concentrates_on_failed(self):
        out = plan_restart(4, 2)
        assert out.strategy == "restart"
        assert out.share_v.tolist() == [0.0, 0.0, 1.0, 0.0]
        assert out.hosting is None

    def test_redistribute_moves_everything_to_survivors(self, job):
        g, a = job
        hosting = a.parts.astype(np.int64)
        alive = np.ones(MACHINES, dtype=bool)
        out = plan_redistribute(g, hosting, MACHINES, 1, alive, seed=7)
        assert out.strategy == "redistribute"
        assert (out.hosting != 1).all()
        assert out.share_v[1] == 0.0
        assert out.share_v.sum() == pytest.approx(1.0)
        assert out.share_e.sum() == pytest.approx(1.0)
        # Vertices not previously on machine 1 did not move.
        unchanged = hosting != 1
        assert (out.hosting[unchanged] == hosting[unchanged]).all()

    def test_redistribute_deterministic(self, job):
        g, a = job
        hosting = a.parts.astype(np.int64)
        alive = np.ones(MACHINES, dtype=bool)
        a_out = plan_redistribute(g, hosting, MACHINES, 1, alive, seed=7)
        b_out = plan_redistribute(g, hosting, MACHINES, 1, alive, seed=7)
        assert (a_out.hosting == b_out.hosting).all()
        assert (a_out.share_v == b_out.share_v).all()

    def test_redistribute_balances_survivors(self, job):
        g, a = job
        hosting = a.parts.astype(np.int64)
        alive = np.ones(MACHINES, dtype=bool)
        out = plan_redistribute(g, hosting, MACHINES, 1, alive, seed=7)
        counts = np.bincount(out.hosting, minlength=MACHINES).astype(float)
        surv = counts[[0, 2, 3]]
        assert surv.max() / surv.mean() < 1.35

    def test_no_survivors_raises(self, job):
        g, a = job
        alive = np.zeros(MACHINES, dtype=bool)
        alive[1] = True
        with pytest.raises(SimulationError):
            plan_redistribute(g, a.parts.astype(np.int64), MACHINES, 1, alive)


class TestFaultInjection:
    def _faulty(self, job, plan, **kwargs):
        g, a = job
        return BSPCluster(MACHINES, plan, graph=g, assignment=a, **kwargs)

    def test_requires_state_for_crashes(self):
        with pytest.raises(ConfigurationError):
            BSPCluster(MACHINES, STANDARD_PLAN)

    def test_deterministic_byte_identical(self, job):
        g, a = job
        runs = [
            _run_walk(self._faulty(job, STANDARD_PLAN), g, a) for _ in range(2)
        ]
        assert runs[0].ledger.to_json() == runs[1].ledger.to_json()

    def test_crash_marks_machine_dead(self, job):
        g, a = job
        cluster = self._faulty(job, STANDARD_PLAN)
        result = _run_walk(cluster, g, a)
        report = cluster.report()
        assert report.alive == [True, False, True, True]
        assert len(report.crashes) == 1
        assert report.crashes[0]["machine"] == 1
        assert report.num_checkpoints >= 1
        assert report.recovery_seconds > 0
        # Dead machine does no work after the crash.
        last = result.ledger.iterations[-1]
        assert last.active is not None and not last.active[1]
        assert last.compute[1] == 0.0 and last.wait[1] == 0.0

    def test_walk_results_unperturbed_by_faults(self, job):
        g, a = job
        base = _run_walk(BSPCluster(MACHINES), g, a)
        faulty = _run_walk(self._faulty(job, STANDARD_PLAN), g, a)
        # Faults change the schedule, never the numerical semantics.
        assert (faulty.final_positions == base.final_positions).all()
        assert faulty.total_steps == base.total_steps

    def test_restart_keeps_membership(self, job):
        g, a = job
        cluster = self._faulty(job, STANDARD_PLAN.with_recovery("restart"))
        _run_walk(cluster, g, a)
        report = cluster.report()
        assert report.alive == [True] * MACHINES
        assert report.crashes[0]["strategy"] == "restart"
        assert report.recovery_seconds > 0

    def test_redistribute_survivors_balanced(self, job):
        g, a = job
        cluster = self._faulty(job, STANDARD_PLAN)
        _run_walk(cluster, g, a)
        report = cluster.report()
        # BPart input ⇒ recovered survivors stay near-balanced.
        assert report.survivor_vertex_max_dev < 0.15
        assert report.survivor_edge_max_dev < 0.35

    def test_straggler_slows_compute(self, job):
        g, a = job
        plan = FaultPlan(stragglers=(Straggler(machine=0, start=0, duration=1, factor=4.0),))
        base = _run_walk(BSPCluster(MACHINES), g, a)
        slow = _run_walk(BSPCluster(MACHINES, plan), g, a)
        assert slow.ledger.iterations[0].compute[0] == pytest.approx(
            4.0 * base.ledger.iterations[0].compute[0]
        )
        assert (
            slow.ledger.iterations[1].compute[0]
            == base.ledger.iterations[1].compute[0]
        )
        kinds = [e.kind for e in slow.ledger.events]
        assert kinds.count("straggler") == 1

    def test_degraded_link_increases_comm(self, job):
        g, a = job
        plan = FaultPlan(
            degraded_links=(DegradedLink(src=0, dst=1, bandwidth_scale=0.25),)
        )
        base = _run_walk(BSPCluster(MACHINES), g, a)
        slow = _run_walk(BSPCluster(MACHINES, plan), g, a)
        assert slow.runtime >= base.runtime
        assert slow.ledger.comm_matrix.sum() > base.ledger.comm_matrix.sum()
        assert any(e.kind == "degraded-link" for e in slow.ledger.events)
        # The numbers are untouched: only the schedule changed.
        assert (slow.final_positions == base.final_positions).all()

    def test_checkpoint_cost_depends_on_balance(self, job):
        g, _ = job
        plan = FaultPlan(checkpoint=CheckpointPolicy(interval=1))
        cost = CheckpointCostModel(fixed_seconds=0.0)
        reports = {}
        for algo in ("bpart", "chunk-v"):
            a = get_partitioner(algo, seed=2).partition(g, MACHINES).assignment
            cluster = BSPCluster(
                MACHINES, plan, graph=g, assignment=a, checkpoint_cost=cost
            )
            _run_walk(cluster, g, a)
            reports[algo] = cluster.report()
        assert reports["bpart"].num_checkpoints == reports["chunk-v"].num_checkpoints
        # A checkpoint barrier lasts as long as the most-stateful machine:
        # the 2-D balanced partition checkpoints strictly cheaper than the
        # vertex-balanced one on a skewed graph.
        assert (
            reports["bpart"].checkpoint_seconds
            < reports["chunk-v"].checkpoint_seconds
        )

    def test_checkpoints_bound_replay(self, job):
        g, a = job

        def replay_with(interval):
            plan = FaultPlan(
                crashes=(Crash(machine=1, superstep=3),),
                checkpoint=CheckpointPolicy(interval=interval),
                seed=7,
            )
            cluster = BSPCluster(MACHINES, plan, graph=g, assignment=a)
            _run_walk(cluster, g, a)
            return cluster.report().crashes[0]["replay_seconds"]

        # With a checkpoint every superstep only the crashing superstep
        # replays; with none, everything since the start does.
        assert replay_with(1) < replay_with(0)

    def test_report_before_run_raises(self, job):
        cluster = self._faulty(job, STANDARD_PLAN)
        cluster.begin_run()
        cluster.report()  # mid-run report is fine
        fresh = BSPCluster(MACHINES)
        with pytest.raises(SimulationError):
            fresh.ledger  # noqa: B018 - property raises before begin_run

    def test_gemini_engine_runs_through_faults(self, job):
        from repro.engines.gemini import GeminiEngine, PageRank

        g, a = job
        base = GeminiEngine(BSPCluster(MACHINES)).run(g, a, PageRank(iterations=5))
        cluster = self._faulty(job, STANDARD_PLAN)
        res = GeminiEngine(cluster).run(g, a, PageRank(iterations=5))
        assert np.allclose(res.values, base.values)
        assert res.ledger.num_iterations > base.ledger.num_iterations
        assert cluster.report().alive == [True, False, True, True]


# ----------------------------------------------------------------------
# Invariants over generated plans: any plan within the cluster size and
# the job's horizon, on either engine.
# ----------------------------------------------------------------------
HORIZON = 6  # engine supersteps: DeepWalk(4 steps) runs 4, PageRank(5) runs 5


@st.composite
def fault_plans(draw, machines=MACHINES, horizon=HORIZON):
    step = st.integers(0, horizon - 1)
    crashed = draw(st.lists(st.integers(0, machines - 1), unique=True, max_size=machines - 1))
    stragglers = draw(
        st.lists(
            st.builds(
                Straggler,
                machine=st.integers(0, machines - 1),
                start=step,
                duration=st.integers(1, horizon),
                factor=st.floats(1.0, 4.0),
            ),
            max_size=2,
        )
    )
    links = []
    for _ in range(draw(st.integers(0, 2))):
        src = draw(st.integers(0, machines - 1))
        links.append(
            DegradedLink(
                src=src,
                dst=(src + draw(st.integers(1, machines - 1))) % machines,
                start=draw(step),
                duration=draw(st.none() | st.integers(1, horizon)),
                bandwidth_scale=draw(st.floats(0.1, 1.0)),
                latency_scale=draw(st.floats(1.0, 3.0)),
            )
        )
    return FaultPlan(
        crashes=tuple(Crash(machine=m, superstep=draw(step)) for m in crashed),
        stragglers=tuple(stragglers),
        degraded_links=tuple(links),
        checkpoint=CheckpointPolicy(interval=draw(st.integers(0, 3))),
        recovery=draw(st.sampled_from(("restart", "redistribute"))),
        seed=draw(st.integers(0, 100)),
    )


def _run_app(cluster, engine, g, a):
    from repro.engines.gemini import GeminiEngine, PageRank

    if engine == "deepwalk":
        return _run_walk(cluster, g, a)
    return GeminiEngine(cluster).run(g, a, PageRank(iterations=5))


@pytest.fixture(scope="module")
def fault_free(job):
    g, a = job
    return {e: _run_app(BSPCluster(MACHINES), e, g, a) for e in ("deepwalk", "pagerank")}


class TestGeneratedPlans:
    @pytest.mark.parametrize("engine", ["deepwalk", "pagerank"])
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(plan=fault_plans())
    def test_invariants(self, job, fault_free, engine, plan):
        g, a = job
        base = fault_free[engine]
        cluster = BSPCluster(MACHINES, plan, graph=g, assignment=a)
        result = _run_app(cluster, engine, g, a)
        ledger, report = cluster.ledger, cluster.report()
        events = ledger.events

        # Every crash that fires yields exactly one crash and one recovery event.
        fired = sorted(c.machine for c in plan.crashes if c.superstep < base.ledger.num_iterations)
        for kind in ("crash", "recovery"):
            assert sorted(e.machine for e in events if e.kind == kind) == fired
        assert sorted(c["machine"] for c in report.crashes) == fired

        # A machine that died under redistribute does nothing from then on.
        if plan.recovery == "redistribute":
            for e in (e for e in events if e.kind == "crash"):
                later = slice(e.superstep + 1, None)
                assert not ledger.active_matrix[later, e.machine].any()
                assert not ledger.compute_matrix[later, e.machine].any()
                assert not ledger.comm_matrix[later, e.machine].any()
        assert report.alive == [
            not (plan.recovery == "redistribute" and m in fired) for m in range(MACHINES)
        ]

        # The report is the ledger's own arithmetic.
        def seconds(kind):
            return sum(e.seconds for e in events if e.kind == kind)

        checkpoints = [e for e in events if e.kind == "checkpoint"]
        assert report.recovery_seconds == seconds("recovery")
        assert report.checkpoint_seconds == seconds("checkpoint")
        assert report.num_checkpoints == len(checkpoints)
        assert report.runtime == ledger.total_runtime
        assert ledger.num_iterations == (
            base.ledger.num_iterations + len(fired) + report.num_checkpoints
        )

        # Faults move the schedule, never the numbers.
        if engine == "deepwalk":
            assert np.array_equal(result.final_positions, base.final_positions)
        else:
            assert np.array_equal(result.values, base.values)

    @pytest.mark.parametrize("with_state", [False, True])
    def test_empty_plan_leaves_no_trace(self, job, fault_free, with_state):
        g, a = job
        state = {"graph": g, "assignment": a} if with_state else {}
        cluster = BSPCluster(MACHINES, FaultPlan(), **state)
        result = _run_walk(cluster, g, a)
        assert result.ledger.events == []
        assert not result.ledger.has_active_masks
        assert result.ledger.to_json() == fault_free["deepwalk"].ledger.to_json()
        assert type(cluster.total_messages) is int
        assert cluster.total_messages == fault_free["deepwalk"].total_messages
