"""Tests for the content-addressed artifact cache and parallel runner."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.bench import artifacts
from repro.bench.artifacts import (
    ArtifactStore,
    cached_partition,
    config_key,
    get_assignment,
)
from repro.bench.harness import ExperimentConfig, run_experiment
from repro.bench.runner import ExperimentOutcome, run_suite
from repro.bench.workloads import (
    PAPER_PARTITIONERS,
    run_app,
    run_fault_walk_job,
    run_serving_job,
    run_walk_job,
)
from repro.cluster.faults import CheckpointPolicy, Crash, FaultPlan
from repro.cluster.ledger import TimingLedger
from repro.graph import chung_lu
from repro.graph.datasets import clear_dataset_cache, load_dataset
from repro.partition import get_partitioner
from repro.partition.base import PartitionResult
from repro.serving import ServingConfig, WorkloadSpec
from repro.utils import canon

TINY = ExperimentConfig(scale=0.05, seed=3)
K = 4


@pytest.fixture
def graph():
    return chung_lu(600, 8.0, 2.3, rng=11)


# ----------------------------------------------------------------------
# Fingerprints and keys
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_stable_across_instances(self):
        g1 = chung_lu(300, 6.0, 2.3, rng=5)
        g2 = chung_lu(300, 6.0, 2.3, rng=5)
        assert g1 is not g2
        assert g1.fingerprint() == g2.fingerprint()

    def test_distinct_graphs_distinct_fingerprints(self):
        g1 = chung_lu(300, 6.0, 2.3, rng=5)
        g2 = chung_lu(300, 6.0, 2.3, rng=6)
        assert g1.fingerprint() != g2.fingerprint()

    def test_assignment_fingerprint_depends_on_parts(self, graph):
        a1 = get_partitioner("hash").partition(graph, K).assignment
        a2 = get_partitioner("chunk-v").partition(graph, K).assignment
        assert a1.fingerprint() != a2.fingerprint()
        a3 = get_partitioner("hash").partition(graph, K).assignment
        assert a1.fingerprint() == a3.fingerprint()


class TestConfigKey:
    def test_int_float_collapse(self):
        assert config_key("x", {"c": 1}) != config_key("x", {"c": 1.0})
        assert config_key("x", {"c": 1.0}) == config_key("x", {"c": np.float64(1.0)})
        assert config_key("x", {"c": 1}) == config_key("x", {"c": np.int64(1)})

    def test_order_insensitive(self):
        assert config_key("x", {"a": 1, "b": 2}) == config_key("x", {"b": 2, "a": 1})

    def test_version_salt_invalidates(self, monkeypatch):
        k1 = config_key("x", {"a": 1})
        monkeypatch.setattr(artifacts, "CACHE_FORMAT_VERSION", 999)
        assert config_key("x", {"a": 1}) != k1

    def test_unkeyable_param_rejected(self):
        with pytest.raises(TypeError):
            config_key("x", {"a": object()})


# ----------------------------------------------------------------------
# Hit/miss accounting and parity
# ----------------------------------------------------------------------
class TestCachedPartition:
    def test_miss_then_hit_accounting(self, graph):
        cached_partition("bpart", graph, K, seed=1)
        snap = artifacts.stats_snapshot()
        assert snap["misses"] == 1 and snap["stores"] == 1 and snap["hits"] == 0
        cached_partition("bpart", graph, K, seed=1)
        snap = artifacts.stats_snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1

    @pytest.mark.parametrize("name", PAPER_PARTITIONERS)
    def test_cached_equals_fresh_all_partitioners(self, graph, name):
        fresh = get_partitioner(name, seed=2).partition(graph, K).assignment
        first = cached_partition(name, graph, K, seed=2).assignment
        # Cold pass through the disk: forget the in-process store.
        artifacts.reset_store()
        warm = cached_partition(name, graph, K, seed=2)
        assert np.array_equal(fresh.parts, first.parts)
        assert np.array_equal(fresh.parts, warm.assignment.parts)
        assert warm.metadata.get("artifact_cache") == "hit"
        assert warm.assignment.num_parts == K

    def test_hit_replays_recorded_clock(self, graph):
        cold = cached_partition("fennel", graph, K, seed=1)
        artifacts.reset_store()
        warm = cached_partition("fennel", graph, K, seed=1)
        assert warm.elapsed == pytest.approx(cold.elapsed)

    def test_param_change_invalidates(self, graph):
        cached_partition("bpart", graph, K, seed=1)
        cached_partition("bpart", graph, K, seed=1, c=0.9)
        snap = artifacts.stats_snapshot()
        assert snap["misses"] == 2 and snap["hits"] == 0
        cached_partition("bpart", graph, K, seed=2)
        assert artifacts.stats_snapshot()["misses"] == 3

    def test_version_salt_invalidates_store(self, graph, monkeypatch):
        cached_partition("hash", graph, K, seed=1)
        monkeypatch.setattr(artifacts, "CACHE_FORMAT_VERSION", 999)
        cached_partition("hash", graph, K, seed=1)
        snap = artifacts.stats_snapshot()
        assert snap["misses"] == 2 and snap["hits"] == 0

    def test_corrupted_file_recovers(self, graph):
        cold = cached_partition("bpart", graph, K, seed=1)
        store = artifacts.get_store()
        files = list(store.root.rglob("*.npz"))
        assert files
        for path in files:
            path.write_bytes(b"this is not an npz archive")
        artifacts.reset_store()  # drop the memory layer: force disk reads
        recovered = cached_partition("bpart", graph, K, seed=1)
        snap = artifacts.stats_snapshot()
        assert snap["errors"] == 1 and snap["misses"] == 1
        assert np.array_equal(cold.assignment.parts, recovered.assignment.parts)
        # the poisoned file was replaced by the recomputed artifact
        artifacts.reset_store()
        assert cached_partition("bpart", graph, K, seed=1).metadata["artifact_cache"] == "hit"

    def test_no_cache_env_disables(self, graph, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        r1 = cached_partition("bpart", graph, K, seed=1)
        r2 = cached_partition("bpart", graph, K, seed=1)
        snap = artifacts.stats_snapshot()
        assert snap["hits"] == snap["misses"] == snap["stores"] == 0
        assert not list(artifacts.get_store().root.rglob("*.npz"))
        assert np.array_equal(r1.assignment.parts, r2.assignment.parts)

    def test_get_assignment_convenience(self, graph):
        a = get_assignment(graph, "fennel", num_parts=K, seed=1)
        b = get_assignment(graph, "fennel", num_parts=K, seed=1)
        assert a is b  # in-process hits share the rehydrated object

    def test_memory_lru_bounded(self, graph):
        store = ArtifactStore(artifacts.default_cache_dir(), memory_items=2)
        for i in range(5):
            store.store("partition", f"fp{i}", "k", {"parts": np.arange(3)})
        assert len(store._memory) == 2


# ----------------------------------------------------------------------
# Simulation artifacts
# ----------------------------------------------------------------------
class TestSimulationArtifacts:
    def test_walk_job_replay(self, graph):
        a = get_assignment(graph, "bpart", num_parts=K, seed=1)
        cold = run_walk_job(graph, a, app_name="deepwalk", walkers_per_vertex=2, seed=1)
        artifacts.reset_store()
        warm = run_walk_job(graph, a, app_name="deepwalk", walkers_per_vertex=2, seed=1)
        assert warm.total_steps == cold.total_steps
        assert warm.total_messages == cold.total_messages
        assert warm.runtime == pytest.approx(cold.runtime)
        assert warm.ledger.waiting_ratio == pytest.approx(cold.ledger.waiting_ratio)
        np.testing.assert_array_equal(warm.final_positions, cold.final_positions)
        assert artifacts.stats_snapshot()["by_kind"]["walk"]["hits"] == 1

    def test_apprun_replay(self, graph):
        a = get_assignment(graph, "bpart", num_parts=K, seed=1)
        cold = run_app("pagerank", graph, a, seed=1)
        artifacts.reset_store()
        warm = run_app("pagerank", graph, a, seed=1)
        assert warm == cold
        assert artifacts.stats_snapshot()["by_kind"]["apprun"]["hits"] == 1

    def test_different_app_misses(self, graph):
        a = get_assignment(graph, "hash", num_parts=K, seed=1)
        run_app("pagerank", graph, a, seed=1)
        run_app("cc", graph, a, seed=1)
        assert artifacts.stats_snapshot()["by_kind"]["apprun"]["hits"] == 0


# ----------------------------------------------------------------------
# memo: the one round trip, and every site that rides it
# ----------------------------------------------------------------------
def _same(a, b) -> bool:
    """Value equality across a cache round trip (tuples may come back as lists)."""
    if isinstance(a, tuple):
        return all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
    if isinstance(a, TimingLedger):
        return a.to_json() == b.to_json()
    if isinstance(a, PartitionResult):
        return _same(a.assignment.parts, b.assignment.parts)  # elapsed: TestCachedPartition
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return canon.dumps(a) == canon.dumps(b)


def _churn_ledger():
    from repro.bench.experiments.churn import run_daemon_ledger
    from repro.partition.repartition import ChurnScenario

    scenario = ChurnScenario(num_vertices=200, num_groups=4, churn_events=60, seed=3)
    return run_daemon_ledger(scenario, num_parts=4).to_json()


def _serve(graph, assignment):
    spec = WorkloadSpec(users=40, duration=0.05, rate=2000.0, seed=2)
    return run_serving_job(graph, assignment, spec=spec, config=ServingConfig(), seed=2)


def _serve_replicated(graph, assignment):
    spec = WorkloadSpec(users=40, duration=0.05, rate=2000.0, seed=2)
    config = ServingConfig(replication_factor=2, hedge_after=0.001)
    return run_serving_job(graph, assignment, spec=spec, config=config, seed=2)


_FAULTS = FaultPlan(crashes=(Crash(machine=1, superstep=1),), checkpoint=CheckpointPolicy(1))

#: artifact kind → the public call that goes through ``memo`` for it.
SITES = {
    "partition": lambda g, a: cached_partition("fennel", g, K, seed=1),
    "churnledger": lambda g, a: _churn_ledger(),
    "walk": lambda g, a: run_walk_job(g, a, app_name="ppr", walkers_per_vertex=1, seed=1),
    "faultwalk": lambda g, a: run_fault_walk_job(g, a, _FAULTS, walkers_per_vertex=1, seed=1),
    "apprun": lambda g, a: run_app("cc", g, a, seed=1),
    "servetrace": _serve,
    "servetrace-k2": _serve_replicated,
}


class TestEveryMemoSite:
    @pytest.fixture(params=sorted(SITES))
    def site(self, request, graph):
        assignment = get_partitioner("hash").partition(graph, K).assignment
        kind = request.param.split("-")[0]
        return kind, lambda: SITES[request.param](graph, assignment)

    @staticmethod
    def _counts(kind):
        return artifacts.stats_snapshot()["by_kind"].get(kind, {})

    def test_miss_then_disk_hit_then_truncated_file(self, site):
        kind, call = site
        cold = call()
        assert self._counts(kind) == {"hits": 0, "misses": 1, "stores": 1, "errors": 0}
        assert call() is not None and self._counts(kind)["hits"] == 1  # in-process

        artifacts.reset_store()  # forget the memory layer: the next hit is the disk's
        warm = call()
        assert self._counts(kind) == {"hits": 1, "misses": 0, "stores": 0, "errors": 0}
        assert _same(cold, warm)

        (path,) = (artifacts.get_store().root / kind).glob("*.npz")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        artifacts.reset_store()
        again = call()
        assert self._counts(kind) == {"hits": 0, "misses": 1, "stores": 1, "errors": 1}
        assert _same(cold, again)

    def test_no_cache_env_computes_every_time(self, site, monkeypatch):
        kind, call = site
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        first, second = call(), call()
        assert _same(first, second) and first is not second
        assert self._counts(kind) == {}
        assert not list(artifacts.get_store().root.rglob("*.npz"))


class TestMemo:
    """The protocol itself, with a counting ``compute``."""

    @staticmethod
    def _memo(calls, **kwargs):
        def compute():
            calls.append(len(calls))
            return {"n": calls[-1]}

        return artifacts.memo(
            "unit", "fp", "key", compute,
            lambda v: {"n": np.int64(v["n"])}, lambda p: {"n": int(p["n"])}, **kwargs,
        )

    def test_computes_once_decodes_once_per_process(self):
        calls = []
        first = self._memo(calls)
        assert self._memo(calls) is first and calls == [0]
        artifacts.reset_store()
        decoded = self._memo(calls)
        assert decoded == first and decoded is not first and calls == [0]
        assert self._memo(calls) is decoded

    def test_no_cache_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        calls = []
        assert [self._memo(calls)["n"], self._memo(calls)["n"]] == [0, 1]

    def test_bypass_never_reads_and_never_overwrites(self):
        calls = []
        assert self._memo(calls, bypass=True) == {"n": 0}  # warms the cold cell
        assert artifacts.stats_snapshot()["stores"] == 1
        assert self._memo(calls, bypass=True) == {"n": 1}  # computed, not read...
        assert artifacts.stats_snapshot()["hits"] == 0
        assert self._memo(calls) == {"n": 0}  # ...and the stored value stands
        artifacts.reset_store()
        assert self._memo(calls) == {"n": 0} and calls == [0, 1]

    def test_churn_site_passes_bypass_through(self):
        from repro.bench.experiments.churn import run_daemon_ledger
        from repro.partition.repartition import ChurnScenario

        scenario = ChurnScenario(num_vertices=200, num_groups=4, churn_events=60, seed=3)
        run_daemon_ledger(scenario, num_parts=4)
        for payload in artifacts.get_store()._memory.values():
            payload["__value__"] = "poisoned"
        assert run_daemon_ledger(scenario, num_parts=4, bypass_cache=True).epochs
        assert artifacts.stats_snapshot()["stores"] == 1


# ----------------------------------------------------------------------
# Bypass: timing experiments never read the cache
# ----------------------------------------------------------------------
def _poison_partition_clocks(sentinel: float) -> None:
    """Overwrite every stored partition's ``elapsed`` with a sentinel value."""
    store = artifacts.get_store()
    for (kind, _fp, _key), payload in store._memory.items():
        if kind == "partition":
            payload["elapsed"] = np.float64(sentinel)
            payload.pop("__value__", None)  # in-process hits decode the poison


class TestBypass:
    SENTINEL = 12345.0

    def test_bypass_never_reads(self, graph):
        cached_partition("bpart", graph, K, seed=1)
        _poison_partition_clocks(self.SENTINEL)
        # non-bypass replays the poisoned clock — proves the poison works
        assert cached_partition("bpart", graph, K, seed=1).elapsed == self.SENTINEL
        # bypass measures fresh, ignoring the poisoned artifact...
        fresh = cached_partition("bpart", graph, K, seed=1, bypass=True)
        assert fresh.elapsed != self.SENTINEL
        assert "artifact_cache" not in fresh.metadata
        # ...and leaves the existing artifact untouched: the clock other
        # runs replay must be stable, not the latest timing measurement
        assert cached_partition("bpart", graph, K, seed=1).elapsed == self.SENTINEL

    def test_bypass_warms_a_cold_cache(self, graph):
        fresh = cached_partition("bpart", graph, K, seed=1, bypass=True)
        assert artifacts.stats_snapshot()["stores"] == 1
        warm = cached_partition("bpart", graph, K, seed=1)
        assert warm.metadata.get("artifact_cache") == "hit"
        assert np.array_equal(fresh.assignment.parts, warm.assignment.parts)

    def test_table2_is_cache_independent(self):
        """table2's reported seconds must come from real runs even when
        the cache holds poisoned clocks for every one of its cells."""
        from repro.bench.experiments.table2_overhead import ALGOS, K as T2K
        from repro.bench.experiments._common import DATASET_ORDER, graph_for

        for dataset in DATASET_ORDER:
            g = graph_for(TINY, dataset)
            for name in ALGOS:
                cached_partition(name, g, T2K, seed=TINY.seed)
        _poison_partition_clocks(self.SENTINEL)
        result = run_experiment("table2", TINY)
        for per_dataset in result.data.values():
            for seconds in per_dataset.values():
                assert seconds != self.SENTINEL


# ----------------------------------------------------------------------
# Parallel runner
# ----------------------------------------------------------------------
class TestRunner:
    def test_serial_outcomes_in_order(self):
        outcomes = run_suite(["fig06", "fig03"], TINY, jobs=1)
        assert [o.experiment_id for o in outcomes] == ["fig06", "fig03"]
        assert all(o.ok for o in outcomes)
        assert all(o.wall_seconds > 0 for o in outcomes)

    def test_experiment_failure_is_an_outcome(self):
        outcomes = run_suite(["no-such-experiment"], TINY)
        assert len(outcomes) == 1
        assert not outcomes[0].ok
        assert outcomes[0].result is None
        assert "no-such-experiment" in outcomes[0].error

    def test_cache_counters_attributed_per_experiment(self, graph):
        cached_partition("bpart", graph, K, seed=1)  # unrelated earlier traffic
        outcomes = run_suite(["fig03"], TINY)
        cache = outcomes[0].cache
        assert cache["misses"] >= 1  # fig03's own work, not the pre-run traffic
        assert set(cache) == {"hits", "misses", "stores", "errors", "by_kind"}

    def test_parallel_matches_serial(self):
        serial = run_suite(["fig03", "fig06"], TINY, jobs=1)
        parallel = run_suite(["fig03", "fig06"], TINY, jobs=2)
        assert [o.experiment_id for o in parallel] == ["fig03", "fig06"]
        for s, p in zip(serial, parallel):
            assert p.ok, p.error
            assert s.result.to_dict() == p.result.to_dict()

    def test_outcome_ok_property(self):
        good = ExperimentOutcome("x", result=None, error=None, wall_seconds=0.1)
        bad = ExperimentOutcome("x", result=None, error="boom", wall_seconds=0.1)
        assert good.ok and not bad.ok


# ----------------------------------------------------------------------
# Satellites: dataset-cache key normalisation, engine memoisation
# ----------------------------------------------------------------------
class TestDatasetCache:
    def test_scale_normalised_before_cache_key(self):
        g1 = load_dataset("twitter", scale=0.05, seed=1)
        g2 = load_dataset("twitter", scale=np.float64(0.05), seed=np.int64(1))
        assert g1 is g2

    def test_clear_dataset_cache(self):
        g1 = load_dataset("twitter", scale=0.05, seed=1)
        clear_dataset_cache()
        g2 = load_dataset("twitter", scale=0.05, seed=1)
        assert g1 is not g2
        assert g1.fingerprint() == g2.fingerprint()


class TestGeminiMemoisation:
    def test_derived_structures_cached_on_assignment(self, graph):
        from repro.cluster import BSPCluster
        from repro.engines.gemini import GeminiEngine, PageRank

        a = get_partitioner("bpart", seed=1).partition(graph, K).assignment
        assert a.derived_cache() == {}
        engine = GeminiEngine(BSPCluster(K))
        r1 = engine.run(graph, a, PageRank(5))
        assert "gemini" in a.derived_cache()
        structs = a.derived_cache()["gemini"]
        r2 = engine.run(graph, a, PageRank(5))
        assert a.derived_cache()["gemini"] is structs  # reused, not rebuilt
        assert r2.runtime == pytest.approx(r1.runtime)
        assert r2.total_messages == r1.total_messages


class TestScalarAttrs:
    def test_single_leading_underscore_stripped(self):
        from types import SimpleNamespace

        from repro.bench.artifacts import scalar_attrs

        out = scalar_attrs(SimpleNamespace(_slack=1.1, order="natural"))
        assert out == {"slack": 1.1, "order": "natural"}

    def test_double_underscore_keeps_one(self):
        """``__x`` strips to ``_x`` (one underscore only), so it cannot
        alias a plain ``x`` attribute."""
        from types import SimpleNamespace

        from repro.bench.artifacts import scalar_attrs

        obj = SimpleNamespace()
        vars(obj)["__x"] = 1
        vars(obj)["x"] = 2
        out = scalar_attrs(obj)
        assert out == {"_x": 1, "x": 2}

    def test_collision_raises(self):
        """``_c`` and ``c`` must never silently merge into one cache
        key — two distinct configs would alias one artifact."""
        from types import SimpleNamespace

        from repro.bench.artifacts import scalar_attrs
        from repro.errors import ConfigurationError

        obj = SimpleNamespace(_c=0.5, c=0.7)
        with pytest.raises(ConfigurationError, match="collision"):
            scalar_attrs(obj)

    def test_partitioner_keys_unchanged(self):
        """The one-underscore strip produces the same keys as before for
        every registered partitioner (all use single-underscore attrs),
        so existing cache artifacts stay addressable — no salt bump."""
        from repro.bench.artifacts import scalar_attrs
        from repro.partition.base import available_partitioners

        for name in available_partitioners():
            try:
                p = get_partitioner(name, seed=0)
            except TypeError:
                p = get_partitioner(name)
            attrs = scalar_attrs(p)
            for key in attrs:
                assert not key.startswith("_")
