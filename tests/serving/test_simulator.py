"""Discrete-event serving simulator: determinism, shedding, chaos."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ConfigurationError
from repro.graph import rmat, social_graph, spill_csr
from repro.partition import PartitionAssignment
from repro.partition.base import get_partitioner
from repro.resilience import ChaosPlan, ChaosRule, install_plan
from repro.serving import (
    SITE_CACHE,
    SITE_MACHINE,
    QueryTrace,
    ServingConfig,
    ServingReport,
    ServingResult,
    ServingSimulator,
    WorkloadSpec,
)
from repro.serving.workload import KIND_WALK
from repro.utils import native


@pytest.fixture(scope="module")
def graph():
    return social_graph(1500, 10.0, 2.2, rng=11)


@pytest.fixture(scope="module")
def assignment(graph):
    return get_partitioner("bpart", seed=0).partition(graph, 4).assignment


@pytest.fixture(scope="module")
def trace(graph):
    return WorkloadSpec(users=300, duration=0.5, rate=1500.0, seed=2).generate(graph)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServingConfig(queue_limit=0)
        with pytest.raises(ConfigurationError):
            ServingConfig(batch_max=-1)
        with pytest.raises(ConfigurationError):
            ServingConfig(slowdown_factor=0.5)

    def test_digest_sensitive(self):
        assert ServingConfig().digest() != ServingConfig(batch_max=2).digest()
        assert ServingConfig().digest() == ServingConfig().digest()

    COUNTS = (
        "queue_limit", "batch_max", "cache_blocks", "cache_block_size", "block_bytes",
        "replication_factor", "suspect_after", "dead_after", "replica_vertex_bytes",
        "replica_edge_bytes",
    )

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, 0])
    @pytest.mark.parametrize("name", COUNTS)
    def test_count_fields_take_positive_integers_only(self, name, bad):
        # ``batch_max=2.5`` used to serve batches of 3 while reporting 2,
        # and ``cache_block_size=64.5`` failed in the demand planner.
        with pytest.raises(ConfigurationError, match=f"^{name} must be a positive integer"):
            ServingConfig(**{name: bad})
        doc = ServingConfig(replication_factor=3).to_dict()
        (doc["replication"] if name in doc["replication"] else doc)[name] = bad
        with pytest.raises(ConfigurationError, match=f"^{name} "):
            ServingConfig.from_dict(doc)

    def test_numpy_integer_counts_serialise_as_ints(self):
        cfg = ServingConfig(batch_max=np.int64(4), replication_factor=np.int32(2))
        assert cfg.to_dict()["batch_max"] == 4 and cfg.digest() == ServingConfig(
            batch_max=4, replication_factor=2
        ).digest()


class TestFromDictRejectsWhatToDictNeverWrote:
    def test_round_trips_every_block(self):
        from repro.cluster.cost import CostModel

        for cfg in (
            ServingConfig(),
            ServingConfig(replication_factor=3, hedge_after=0.004, dead_after=6),
            ServingConfig(cost=CostModel(cores=(2, 4, 8, 8))),
        ):
            doc = json.loads(json.dumps(cfg.to_dict()))
            assert ServingConfig.from_dict(doc) == cfg

    @pytest.mark.parametrize("schema", ["serving/v2", None])
    def test_wrong_or_missing_schema(self, schema):
        doc = ServingConfig().to_dict()
        if schema is None:
            del doc["schema"]
        else:
            doc["schema"] = schema
        with pytest.raises(ConfigurationError, match="schema"):
            ServingConfig.from_dict(doc)

    def test_replication_knob_at_top_level(self):
        doc = {**ServingConfig().to_dict(), "replication_factor": 2}
        with pytest.raises(ConfigurationError, match="'replication_factor'"):
            ServingConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda d: d.update(bogus=1), "'bogus'"),
            (lambda d: d.pop("queue_limit"), "'queue_limit'"),
            (lambda d: d["cost"].update(gpus=2), "'gpus'"),
            (lambda d: d["network"].pop("latency"), "'latency'"),
            (lambda d: d["replication"].update(batch_max=4), "'batch_max'"),
            (lambda d: d["replication"].pop("dead_after"), "'dead_after'"),
        ],
    )
    def test_unknown_misplaced_or_missing_key_is_named(self, mutate, named):
        doc = ServingConfig(replication_factor=2).to_dict()
        mutate(doc)
        with pytest.raises(ConfigurationError, match=named):
            ServingConfig.from_dict(doc)

    def test_replication_defaults_are_the_dataclass_defaults(self):
        from repro.serving import simulator

        assert simulator._REPLICATION_DEFAULTS == ServingConfig().replication_dict()
        assert set(simulator._TOP_LEVEL_KEYS) | set(simulator._REPLICATION_DEFAULTS) == {
            f.name for f in dataclasses.fields(ServingConfig)
        }


class TestDeterminism:
    def test_same_seed_same_result(self, assignment, trace):
        r1 = ServingSimulator(assignment, seed=3).run(trace)
        r2 = ServingSimulator(assignment, seed=3).run(trace)
        np.testing.assert_array_equal(r1.latency, r2.latency)
        np.testing.assert_array_equal(r1.shed, r2.shed)
        np.testing.assert_array_equal(r1.busy_seconds, r2.busy_seconds)
        assert r1.summary() == r2.summary()

    def test_seed_changes_walk_outcomes(self, assignment, trace):
        r1 = ServingSimulator(assignment, seed=3).run(trace)
        r2 = ServingSimulator(assignment, seed=4).run(trace)
        # Walk randomness differs, so aggregate accounting shifts.
        assert (
            r1.messages.tolist() != r2.messages.tolist()
            or not np.array_equal(r1.latency, r2.latency)
        )


class TestServing:
    def test_everything_served_at_low_load(self, assignment, trace):
        result = ServingSimulator(assignment, seed=1).run(trace)
        assert result.shed_rate == 0.0
        assert result.completed == trace.num_queries
        done = result.latency[~result.shed]
        assert np.all(np.isfinite(done)) and np.all(done > 0)
        assert result.makespan >= trace.times[-1]
        assert result.latency_quantile(0.99) >= result.latency_quantile(0.5)

    def test_queue_pressure_sheds(self, assignment, graph):
        heavy = WorkloadSpec(users=300, duration=0.2, rate=40000.0, seed=5).generate(
            graph
        )
        from repro.cluster.cost import CostModel

        cfg = ServingConfig(queue_limit=2, batch_max=1, cost=CostModel(cores=1))
        result = ServingSimulator(assignment, cfg, seed=1).run(heavy)
        assert result.shed_rate > 0.0
        assert np.all(np.isnan(result.latency[result.shed]))
        assert result.completed + int(result.shed.sum()) == heavy.num_queries
        # per-machine accounting closes
        assert int(result.queries.sum() + result.shed_per_machine.sum()) == heavy.num_queries

    def test_batching_amortises(self, assignment, trace):
        lone = ServingSimulator(assignment, ServingConfig(batch_max=1), seed=1).run(trace)
        batched = ServingSimulator(assignment, ServingConfig(batch_max=16), seed=1).run(trace)
        assert batched.batches.sum() <= lone.batches.sum()

    def test_remote_reads_follow_the_cut(self, graph, trace):
        contiguous = get_partitioner("chunk-v", seed=0).partition(graph, 4).assignment
        scattered = get_partitioner("hash", seed=0).partition(graph, 4).assignment
        local = ServingSimulator(contiguous, seed=1).run(trace)
        remote = ServingSimulator(scattered, seed=1).run(trace)
        assert remote.messages.sum() > local.messages.sum()

    def test_trace_graph_mismatch_rejected(self, trace):
        from repro.graph import ring_graph

        small = ring_graph(8)
        tiny = get_partitioner("chunk-v", seed=0).partition(small, 2).assignment
        with pytest.raises(ConfigurationError):
            ServingSimulator(tiny, seed=0).run(trace)

    @pytest.mark.parametrize("factor", [1, 2])
    def test_empty_trace_is_served_at_every_k(self, assignment, trace, factor):
        empty = QueryTrace(
            spec=trace.spec,
            times=np.empty(0, dtype=np.float64),
            user=np.empty(0, dtype=np.int64),
            vertex=np.empty(0, dtype=np.int64),
            kind=np.empty(0, dtype=np.uint8),
        )
        config = ServingConfig(replication_factor=factor)
        result = ServingSimulator(assignment, config, seed=1).run(empty)
        summary = result.summary()
        assert summary["queries"] == summary["completed"] == summary["shed"] == 0
        assert summary["latency_p99"] is None and summary["throughput"] is None
        assert result.batches.sum() == 0 and result.makespan == 0.0
        assert result.restored and result.health_ledger == []
        assert ("replication" in summary) == (factor == 2)
        json.dumps(summary, allow_nan=False)

    def test_summary_sorts_the_latencies_once(self, assignment, trace, monkeypatch):
        result = ServingSimulator(assignment, seed=1).run(trace)
        expect = result.summary()
        assert expect["latency_p99"] == result.latency_quantile(0.99)
        assert expect["latency_mean"] == float(result.completed_latencies().mean())
        sorts, real = [], ServingResult.completed_latencies
        monkeypatch.setattr(
            ServingResult, "completed_latencies", lambda self: sorts.append(1) or real(self)
        )
        assert result.summary() == expect and len(sorts) == 1

    def test_quantile_validation(self, assignment, trace):
        result = ServingSimulator(assignment, seed=1).run(trace)
        with pytest.raises(ConfigurationError):
            result.latency_quantile(0.0)
        with pytest.raises(ConfigurationError):
            result.latency_quantile(1.5)


class TestChaos:
    def test_machine_slowdown_degrades_tail(self, assignment, trace):
        clean = ServingSimulator(assignment, seed=1).run(trace)
        install_plan(
            ChaosPlan(seed=1, rules=(ChaosRule(site=SITE_MACHINE, kind="exception"),))
        )
        try:
            slow = ServingSimulator(assignment, seed=1).run(trace)
        finally:
            install_plan(None)
        assert slow.degraded_batches.sum() == slow.batches.sum()
        assert slow.latency_quantile(0.99) > clean.latency_quantile(0.99)
        # graceful: still completes the full trace
        assert slow.completed + int(slow.shed.sum()) == trace.num_queries

    def test_partial_rate_hits_some_batches(self, assignment, trace):
        install_plan(
            ChaosPlan(
                seed=2, rules=(ChaosRule(site=SITE_MACHINE, kind="ioerror", rate=0.25),)
            )
        )
        try:
            result = ServingSimulator(assignment, seed=1).run(trace)
        finally:
            install_plan(None)
        assert 0 < result.degraded_batches.sum() < result.batches.sum()

    def test_cache_chaos_flushes(self, assignment, trace):
        clean = ServingSimulator(assignment, seed=1).run(trace)
        install_plan(
            ChaosPlan(
                seed=3, rules=(ChaosRule(site=SITE_CACHE, kind="exception", rate=0.2),)
            )
        )
        try:
            flushed = ServingSimulator(assignment, seed=1).run(trace)
        finally:
            install_plan(None)
        assert flushed.cache_flushes.sum() > 0
        assert flushed.cache_stats["hit_rate"] < clean.cache_stats["hit_rate"]

    def test_chaos_run_is_deterministic(self, assignment, trace):
        plan = ChaosPlan(
            seed=4,
            rules=(
                ChaosRule(site=SITE_MACHINE, kind="exception", rate=0.1),
                ChaosRule(site=SITE_CACHE, kind="exception", rate=0.1),
            ),
        )
        outs = []
        for _ in range(2):
            install_plan(plan)
            try:
                outs.append(ServingSimulator(assignment, seed=1).run(trace).summary())
            finally:
                install_plan(None)
        assert outs[0] == outs[1]


class TestTelemetry:
    def test_disabled_records_nothing(self, assignment, trace):
        ServingSimulator(assignment, seed=1).run(trace)
        assert telemetry.to_json(telemetry.registry()) == telemetry.to_json(
            telemetry.registry().__class__()
        )

    def test_enabled_records_slo_metrics(self, assignment, trace):
        telemetry.set_enabled(True)
        result = ServingSimulator(assignment, seed=1).run(trace)
        snap = telemetry.registry().snapshot()
        assert snap["counters"]["serving.queries"] == trace.num_queries
        hist = snap["histograms"]["serving.latency_seconds"]
        assert hist["count"] == result.completed
        assert hist["per_decade"] == 4  # the bounded-histogram kind

    def test_k1_run_emits_the_plain_series_and_three_spans(self, assignment, trace):
        native.library("serve")  # a process's first load emits serving.kernels.build
        telemetry.set_enabled(True)
        ServingSimulator(assignment, seed=1).run(trace)
        reg = telemetry.registry()
        assert {m.name for m in reg.metrics()} == {
            "serving.queries",
            "serving.shed",
            "serving.batches",
            "serving.messages",
            "serving.degraded_batches",
            "serving.cache_flushes",
            "serving.cache.hits",
            "serving.cache.misses",
            "serving.cache.hit_rate",
            "serving.latency_seconds",
        }
        spans = {span["name"]: span["args"] for span in reg.spans}
        assert spans == {
            "serving.replication.plan": {},
            "serving.demand.plan": {"queries": trace.num_queries},
            "serving.event_loop": {"machines": 4, "queries": trace.num_queries},
        }

    def test_generate_serve_report_spans_every_boundary(self, graph, assignment):
        spec = WorkloadSpec(users=300, duration=0.1, rate=1500.0, seed=2)
        report = ServingReport(spec, ServingConfig(), num_parts=4)

        def generate_serve_report():
            trace = spec.generate(graph)
            report.entries.clear()
            report.add("bpart", ServingSimulator(assignment, seed=1).run(trace))
            return trace.num_queries, report.to_json(), report.render()

        off = generate_serve_report()
        assert telemetry.registry().spans == []
        telemetry.set_enabled(True)
        assert generate_serve_report() == off
        q = off[0]
        assert [(span["name"], span["args"]) for span in telemetry.registry().spans] == [
            ("serving.workload.generate", {"queries": q}),
            ("serving.replication.plan", {}),
            ("serving.demand.plan", {"queries": q}),
            ("serving.event_loop", {"machines": 4, "queries": q}),
            ("serving.report.render", {}),
            ("serving.report.render", {}),
        ]


# ----------------------------------------------------------------------
_DIGESTED = (
    "latency",
    "shed",
    "machine_of_query",
    "queries",
    "shed_per_machine",
    "batches",
    "degraded_batches",
    "cache_flushes",
    "busy_seconds",
    "messages",
)

_GRID_CONFIGS = {"defaults": {}, "tight": {"queue_limit": 8, "cache_blocks": 16}}
_GRID_PLANS = {
    "clean": None,
    "chaos": ChaosPlan(
        seed=5,
        rules=(
            ChaosRule(site=SITE_MACHINE, kind="exception", rate=0.25),
            ChaosRule(site=SITE_CACHE, kind="exception", rate=0.2),
        ),
    ),
}
_CRASH = ChaosPlan(
    seed=7,
    rules=(ChaosRule(site="serving.replica.crash", kind="exception", match="m1:h5"),),
)


def result_digest(result) -> str:
    """sha256 over every accounting array plus the canonical summary."""
    h = hashlib.sha256()
    for name in _DIGESTED:
        h.update(np.ascontiguousarray(getattr(result, name)).tobytes())
    h.update(
        json.dumps(result.summary(), sort_keys=True, separators=(",", ":")).encode()
    )
    return h.hexdigest()


def _served(graph, assignment, config, plan, seed, *, duration, rate, **spec):
    trace = WorkloadSpec(
        users=300, duration=duration, rate=rate, seed=seed, **spec
    ).generate(graph)
    install_plan(plan)
    try:
        return ServingSimulator(assignment, config, seed=seed).run(trace)
    finally:
        install_plan(None)


def k1_grid_result(graph, assignment, seed, config, plan):
    """120 k q/s for 30 ms: the ``tight`` config sheds, ``defaults`` does
    not (clean) or barely (chaos)."""
    return _served(
        graph,
        assignment,
        ServingConfig(**_GRID_CONFIGS[config]),
        _GRID_PLANS[plan],
        seed,
        duration=0.03,
        rate=120000.0,
    )


def k2_result(graph, assignment, drill):
    if drill == "crash":  # long enough to reach heartbeat tick 5 and recover
        config, plan, shape = ServingConfig(replication_factor=2), _CRASH, (0.5, 1500.0)
    else:
        config = ServingConfig(replication_factor=2, hedge_after=0.0001, cache_blocks=16)
        plan, shape = None, (0.05, 60000.0)
    return _served(
        graph, assignment, config, plan, 1, duration=shape[0], rate=shape[1]
    )


_ALL_WALKS = {"walk_frac": 1.0, "walk_steps": 8}


def walk_result(graph, assignment, cell):
    """Every query an eight-step walk. At 120 k q/s with a 16-block
    cache, batches of one to ``batch_max`` walkers each occur dozens of
    times; on the directed graph walkers die at sinks. ``table-grows``
    is 2 s at 4 k q/s, long enough for one machine to pass 2 048
    batches; ``one-step`` walks one step and ``lone-walkers`` serves one
    walker per batch."""
    if cell == "directed":
        graph = rmat(10, 4, rng=7, directed=True)
        assignment = PartitionAssignment(graph, np.arange(graph.num_vertices) % 4, 4)
    config, shape = ServingConfig(**_GRID_CONFIGS["tight"]), (0.03, 120000.0)
    walks = dict(_ALL_WALKS)
    if cell == "k2-hedged":
        config = ServingConfig(replication_factor=2, hedge_after=0.0001, cache_blocks=16)
        shape = (0.05, 60000.0)
    elif cell == "table-grows":
        config, shape = ServingConfig(), (2.0, 4000.0)
    elif cell == "one-step":
        walks["walk_steps"] = 1
    elif cell == "lone-walkers":
        config = ServingConfig(batch_max=1, **_GRID_CONFIGS["tight"])
    result = _served(
        graph, assignment, config, None, 1, duration=shape[0], rate=shape[1], **walks
    )
    return graph, result


_CACHE_CHAOS = ChaosPlan(seed=3, rules=(ChaosRule(site=SITE_CACHE, kind="exception", rate=0.5),))


def cache_result(graph, assignment, cell, tmp_path):
    """Cells that stress the block cache, each on the default query mix
    (walkers and k-hop rows merge in one batch): one-block capacity,
    one-vertex blocks (every batch touches many blocks), one block for
    the whole graph, a flush every other batch, the K=2 crash drill
    (``reset`` after re-replication) on a 16-block cache, and the
    ``full-batches`` walk cell on 256-vertex shards."""
    if cell == "sharded-walks":
        shards = spill_csr(graph, tmp_path / "shards", shard_size=256)
        return walk_result(shards, PartitionAssignment(shards, assignment.parts, 4),
                           "full-batches")[1]
    config, plan, shape = ServingConfig(cache_blocks=16), None, (0.03, 120000.0)
    if cell == "capacity-1":
        config = ServingConfig(cache_blocks=1)
    elif cell == "block-size-1":
        config = ServingConfig(cache_blocks=16, cache_block_size=1)
    elif cell == "one-block":
        config = ServingConfig(cache_block_size=2048)
    elif cell == "flush-chaos":
        plan = _CACHE_CHAOS
    elif cell == "k2-crash":
        config = ServingConfig(replication_factor=2, cache_blocks=16)
        plan, shape = _CRASH, (0.5, 1500.0)
    return _served(graph, assignment, config, plan, 1, duration=shape[0], rate=shape[1])


class TestBytesDidNotMove:
    """Digests recorded on the commit that still had two event loops
    (``_run_simple`` for these K=1 cells, ``_run_replicated`` for K=2)."""

    K1 = {
        "1-defaults-chaos": "bd0c7a9c36c6b0284ad2d981432f972449008330ac406740e0d17d22b9baeff7",
        "1-defaults-clean": "a5ec42e790c45304d2e200e09fbf67c9ddfc9c941d19fbae5ebb2ce34ba5483e",
        "1-tight-chaos": "e257526802fd2124547a09804c86d9e22643f8b21f770d6a8f9585abf6718a73",
        "1-tight-clean": "240e7071bff14d6a55bb8d5063cceb967aca056ccbddecfe4b3d20d716978e99",
        "2-defaults-chaos": "e48b1b5d6fa24c49bed95e251cab68dd8a93232b34ebbcd455645efe955d8049",
        "2-defaults-clean": "4b2947bdcc10d6ff402239adfe73293cb4cfff48227da28b6f3c46782bc34ae1",
        "2-tight-chaos": "57cb4b0df590cf046e46f9496b5745e3337d53e1b9ee872202b10c5e79618ca3",
        "2-tight-clean": "bb57e95c53a7ca8716ca0306a2d58e69ea6992ca556f0b62876c01c714b03036",
        "3-defaults-chaos": "91de0102ba1324c31d5a3e12bdf1ae58e736438ed32e4b98fda341a9f142d638",
        "3-defaults-clean": "d6d064b693fe4d4f0689b3ababdfded2a826ead850a3521cfb7de3fc0c9f454e",
        "3-tight-chaos": "84042c7d2ef1421f3e9ddfbc9a2eb7ea40848b9612513cd85191ba0aafdccae1",
        "3-tight-clean": "9c9f4bc4ebd3280b37cb1dbc87b53751aa24c1ca15526ae778df86d6837f6fca",
    }
    K2 = {
        "crash": "c5cbe3ea0b33c6f668d343e7ea4ac78fdd794e52987c7f5bc9c28d017c8719aa",
        "hedged": "58f93cef722755eb6e527ca73790a0c4a2c30b38c1e441365a4ce0675b8d7cf5",
    }

    @pytest.mark.parametrize("plan", sorted(_GRID_PLANS))
    @pytest.mark.parametrize("config", sorted(_GRID_CONFIGS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_k1_grid(self, graph, assignment, seed, config, plan):
        result = k1_grid_result(graph, assignment, seed, config, plan)
        assert not result.replicated
        assert result_digest(result) == self.K1[f"{seed}-{config}-{plan}"]

    def test_grid_exercises_shedding_and_both_chaos_sites(self, graph, assignment):
        tight = k1_grid_result(graph, assignment, 1, "tight", "chaos")
        assert tight.shed.any()
        assert tight.degraded_batches.sum() > 0 and tight.cache_flushes.sum() > 0
        assert not k1_grid_result(graph, assignment, 1, "defaults", "clean").shed.any()

    @pytest.mark.parametrize("drill", ["crash", "hedged"])
    def test_k2_drills(self, graph, assignment, drill):
        result = k2_result(graph, assignment, drill)
        if drill == "crash":
            assert result.crashes == 1 and result.redispatched > 0 and result.restored
        else:
            assert result.hedges > result.hedge_wins > 0
        assert result_digest(result) == self.K2[drill]

    # The first three were recorded at 48a1105, the last commit whose walk
    # block called ``uniform_neighbor`` per step; the last three at 23aa66c,
    # the last commit that called ``derive_rng`` once per walk batch.
    WALKS = {
        "full-batches": "25de09813d866e9b341dca7ddd24c21b6e7bca79b48cc742eb026f4c74abd103",
        "directed": "dbdd03b2e87a32f3464fba231bb4b821131a442d548ac2b85c2a72c7cd2080cc",
        "k2-hedged": "db2621aac204dff93f638b0a70fd36948a49f806551bc08396407a05f99867cd",
        "table-grows": "f852914504231b1701c90f5eafd8b90391faba00ebe751881a384e885ba13635",
        "one-step": "76540744a86545a0a8a7d17d205cd663b6006ac976054f2063812dee8d1c2ed6",
        "lone-walkers": "fbcd8dbc77faee8e6d64f71484e2e2101ff4442de53e055bb552d40b394d67f4",
    }

    @pytest.mark.parametrize("cell", sorted(WALKS))
    def test_walk_heavy_cells(self, graph, assignment, cell):
        walked, result = walk_result(graph, assignment, cell)
        assert (result.kind == KIND_WALK).all()
        if cell == "full-batches":  # up to eight walkers share one generator
            assert result.queries.sum() / result.batches.sum() > 2.5
        elif cell == "directed":  # walkers die on step 1 and mid-walk
            assert 0.3 < (walked.degrees == 0).mean() < 0.6
        elif cell == "k2-hedged":
            assert result.hedges > result.hedge_wins > 0
        elif cell == "table-grows":
            assert result.batches.max() > 2100
        elif cell == "lone-walkers":
            assert (result.batches == result.queries).all()
        assert result_digest(result) == self.WALKS[cell]

    # Recorded at ea98260, the last commit whose cache was an OrderedDict
    # per machine fed by a Python merge of the batch's demand rows.
    # The shards run the ``full-batches`` walk cell, so its digest is that one.
    CACHE = {
        "block-size-1": "c37d96259bcfd25b95534fcaaec5ef69cd70883eb5e028dd1aba2db42f3726aa",
        "capacity-1": "4a60d5c8bb45062784370aec8203e18df0e01b5a17ee54fe5e70616d00febc61",
        "flush-chaos": "a0cc1d7305843d2bcde681b03caaf9c60797b8c6e8933c2bffb8d82ca8021ef9",
        "k2-crash": "fae8e3a57d25b4511b9739c7fd353f3e0738d9d80b6c5b4dc9d873acf8a8a310",
        "one-block": "6496b1743bd9654b1380136ea350672a6c5094f35efcf2f35dfe13a00d8bcd2c",
        "sharded-walks": WALKS["full-batches"],
    }

    @pytest.mark.parametrize("cell", sorted(CACHE))
    def test_cache_cells(self, graph, assignment, cell, tmp_path):
        result = cache_result(graph, assignment, cell, tmp_path)
        stats = result.cache_stats
        assert (result.kind == KIND_WALK).any()
        if cell == "one-block":  # one cold fetch per machine, never an eviction
            assert (stats["miss_blocks"], stats["evictions"]) == (4, 0)
        else:
            assert stats["evictions"] > 0
        if cell == "block-size-1":
            assert stats["miss_blocks"] > 50 * result.batches.sum()
        elif cell == "flush-chaos":
            assert result.cache_flushes.sum() > result.batches.sum() // 3
        elif cell == "k2-crash":
            assert result.crashes == 1 and result.restored
        assert result_digest(result) == self.CACHE[cell]
