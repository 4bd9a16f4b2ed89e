"""The six workloads: inputs from a seed, a timed body, checks, layers.

Each workload binds only to public callables of ``repro`` (named in
the README); every layer is timed from here, from outside.

``setup(seed, tr)`` builds one input and nothing else sees the seed.
``body(st, tr)`` is what ``wall_s`` times; with ``tr.on`` the same work
runs through its layer boundaries so spans can be recorded — for BPart
that means driving ``multi_layer_combine`` with a timing-wrapped
phase 1 instead of calling ``BPartPartitioner.partition``, and the
harness checks both paths give the same digest. ``finish`` turns the
first rep's output into exact metrics and runs the output checks;
``layers`` reads the traced spans and runs the per-layer probes.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.bench.artifacts import ArtifactStore
from repro.cluster import BSPCluster, TimingLedger
from repro.engines.gemini import ConnectedComponents, GeminiEngine, PageRank
from repro.engines.knightking import PPR, DeepWalk, Node2Vec, WalkEngine
from repro.graph import ShardedCSRBuilder, from_edges, load_dataset, social_edge_batches
from repro.graph.datasets import clear_dataset_cache
from repro.partition import (
    PartitionAssignment,
    balance_report,
    edge_cut_ratio,
    get_partitioner,
    multi_layer_combine,
)
from repro.partition.bpart import weighted_stream_partition
from repro.resilience.chaos import ChaosPlan, ChaosRule, install_plan
from repro.serving import (
    PartitionAwareCache,
    ServingConfig,
    ServingReport,
    ServingSimulator,
    WorkloadSpec,
    plan_replicas,
)

from spans import Tracer

K = 8  # parts = machines, the paper's testbed
PIECES = 32  # phase-1 pieces of BPart's first layer at k=8
SLO_SECONDS = 0.05
_T = time.perf_counter


def timed(fn):
    """``(result, seconds)`` of one call."""
    t = _T()
    out = fn()
    return out, _T() - t


# ----------------------------------------------------------------------
# BPart through its layer boundaries
# ----------------------------------------------------------------------
def bpart(graph, seed: int, tr: Tracer) -> tuple[PartitionAssignment, dict]:
    """BPart k=8 at its defaults; traced, the same schedule driven from
    here so phase 1 (``partition.stream``) and the combine driver around
    it (``partition.combine``) get their own spans."""
    if not tr.on:
        return get_partitioner("bpart", seed=seed).partition(graph, K).assignment, {}
    counts = {"stream_calls": 0, "stream_vertices": 0}

    def phase1(sub, pieces):
        counts["stream_calls"] += 1
        counts["stream_vertices"] += sub.num_vertices
        with tr.span("partition.stream"):
            return weighted_stream_partition(sub, pieces, rng=seed)

    with tr.span("partition.combine"):
        parts, layers = multi_layer_combine(graph, phase1, K)
    counts["combine_layers"] = len(layers)
    return PartitionAssignment(graph, parts, K), counts


def bpart_layers(tr: Tracer, counts: dict) -> dict:
    stream = tr.seconds("partition.stream")
    return {
        "partition.stream_s": stream,
        "partition.stream_calls": counts["stream_calls"],
        "partition.stream_vertices": counts["stream_vertices"],
        "partition.stream_vertices_per_s": counts["stream_vertices"] / stream,
        "partition.combine_self_s": tr.seconds("partition.combine") - stream,
        "partition.combine_layers": counts["combine_layers"],
    }


def quality(assignment: PartitionAssignment) -> dict:
    r = balance_report(assignment)
    return {
        "bias_v": r.vertex_bias,
        "bias_e": r.edge_bias,
        "edge_cut_ratio": r.cut_ratio,
        "max_load_v": 1.0 + r.vertex_bias,
        "max_load_e": 1.0 + r.edge_bias,
    }


def check_partition(checks, graph, parts: np.ndarray, seed: int) -> None:
    checks.check("every vertex in [0, 8)", parts.size == graph.num_vertices
                 and int(parts.min()) >= 0 and int(parts.max()) < K)
    hashed = get_partitioner("hash", seed=seed).partition(graph, K).assignment
    checks.check("BPart cut below hash cut",
                 edge_cut_ratio(graph, parts) < edge_cut_ratio(graph, hashed.parts))


class Workload:
    """One benchmark workload; subclasses fill in the five hooks."""

    name = ""
    why = ""

    def __init__(self, smoke: bool = False, workdir: Path | None = None) -> None:
        self.shrink = 8 if smoke else 1  # --smoke: graphs / 8
        self.workdir = workdir

    def setup(self, seed: int, tr: Tracer):
        raise NotImplementedError

    def body(self, st, tr: Tracer) -> dict:
        raise NotImplementedError

    def items(self, st, out: dict) -> int:
        raise NotImplementedError

    def finish(self, st, out: dict, checks) -> tuple[dict, dict]:
        """``(exact metrics, info digests)`` from one body output."""
        raise NotImplementedError

    def layers(self, st, out: dict, tr: Tracer, checks, wall_s: float) -> dict:
        raise NotImplementedError

    # shared by the workloads that build their partition in setup
    def _load(self, dataset: str, scale: float, seed: int, tr: Tracer):
        clear_dataset_cache()  # every setup generates; no replay of a memoised graph
        st = SimpleNamespace(seed=seed)
        with tr.span("graph.generate"):
            st.graph = load_dataset(dataset, scale / self.shrink, seed)
        with tr.span("graph.fingerprint"):
            st.graph_fp = st.graph.fingerprint()
        return st

    def _partitioned(self, st, tr: Tracer):
        st.bpart, st.bpart_counts = bpart(st.graph, st.seed, tr)
        with tr.span("partition.metrics"):
            st.quality = quality(st.bpart)
        with tr.span("partition.fingerprint"):
            st.bpart_fp = st.bpart.fingerprint()
        return st

    def _graph_layers(self, st, tr: Tracer) -> dict:
        return {
            "graph.generate_s": tr.seconds("graph.generate"),
            "graph.fingerprint_s": tr.seconds("graph.fingerprint"),
            "graph.arcs": st.graph.num_edges,
        }

    def _partitioned_layers(self, st, tr: Tracer) -> dict:
        """Setup-side layers of a workload whose setup ran BPart."""
        out = self._graph_layers(st, tr)
        out.update(bpart_layers(tr, st.bpart_counts))
        out["partition.metrics_s"] = tr.seconds("partition.metrics")
        out["partition.fingerprint_s"] = tr.seconds("partition.fingerprint")
        return out


# ----------------------------------------------------------------------
class PartitionDense(Workload):
    name = "partition_dense"
    why = ("BPart k=8 on a dense twitter-like graph: partition.kernels and partition.combine "
           "do all the work, engines and serving none")

    def setup(self, seed, tr):
        return self._load("twitter", 2.0, seed, tr)

    def body(self, st, tr):
        assignment, counts = bpart(st.graph, st.seed, tr)
        return {"assignment": assignment, "counts": counts, "digest": assignment.fingerprint()}

    def items(self, st, out):
        return st.graph.num_vertices

    def finish(self, st, out, checks):
        check_partition(checks, st.graph, out["assignment"].parts, st.seed)
        return quality(out["assignment"]), {"graph": st.graph_fp, "assignment": out["digest"]}

    def layers(self, st, out, tr, checks, wall_s):
        g, seed = st.graph, st.seed
        res = self._graph_layers(st, tr)
        res.update(bpart_layers(tr, out["counts"]))
        passes = {}
        for kernel in ("buffered", "incremental"):
            with tr.span(f"partition.kernels.{kernel}"):
                passes[kernel] = weighted_stream_partition(g, PIECES, rng=seed, kernel=kernel)
            res[f"partition.kernels.{kernel}_s"] = tr.seconds(f"partition.kernels.{kernel}")
        # the only multi-process cell of the suite
        with tr.span("parallel.stream_jobs2"):
            passes["jobs2"] = weighted_stream_partition(g, PIECES, rng=seed, jobs=2)
        with tr.span("partition.fennel"):
            get_partitioner("fennel", seed=seed).partition(g, K)
        checks.check("buffered, incremental and jobs=2 kernels agree",
                     np.array_equal(passes["buffered"], passes["incremental"])
                     and np.array_equal(passes["buffered"], passes["jobs2"]))
        res["partition.fennel_s"] = tr.seconds("partition.fennel")
        res["partition.bpart_over_fennel"] = wall_s / res["partition.fennel_s"]
        res["parallel.stream_jobs2_s"] = tr.seconds("parallel.stream_jobs2")
        res["parallel.stream_jobs2_speedup"] = (
            res["partition.kernels.buffered_s"] / res["parallel.stream_jobs2_s"])
        return res


# ----------------------------------------------------------------------
class PartitionSharded(Workload):
    name = "partition_sharded"
    why = ("edge batches -> ShardedCSRBuilder -> BPart on 8 mmapped shards: the same kernels "
           "through the gather path, plus the shard write path")

    def setup(self, seed, tr):
        st = SimpleNamespace(seed=seed, n=2**17 // self.shrink,
                             shard_size=(1 << 14) // self.shrink)
        with tr.span("graph.generate"):
            st.batches = list(social_edge_batches(
                st.n, 16.0, 2.3, rng=seed, batch_size=(1 << 18) // self.shrink))
        return st

    def _build(self, st, directory: str, tr: Tracer):
        builder = ShardedCSRBuilder(directory, num_vertices=st.n, shard_size=st.shard_size)
        try:
            with tr.span("graph.sharded.add_edges"):
                for src, dst in st.batches:
                    builder.add_edges(src, dst)
            with tr.span("graph.sharded.finalize"):
                return builder.finalize()
        except BaseException:
            builder.abort()
            raise

    def body(self, st, tr):
        directory = tempfile.mkdtemp(prefix="shards-", dir=self.workdir)  # fresh dir per rep
        graph = None
        try:
            graph = self._build(st, directory, tr)
            assignment, counts = bpart(graph, st.seed, tr)
            with tr.span("graph.fingerprint"):
                graph_fp = graph.fingerprint()
            return {"parts": np.array(assignment.parts), "counts": counts,
                    "graph_fp": graph_fp, "digest": assignment.fingerprint(),
                    "arcs": graph.num_edges}
        finally:
            if graph is not None:
                graph.close()
            shutil.rmtree(directory, ignore_errors=True)

    def items(self, st, out):
        return out["arcs"]

    def finish(self, st, out, checks):
        src = np.concatenate([b[0] for b in st.batches])
        dst = np.concatenate([b[1] for b in st.batches])
        dense, st.dense_build_s = timed(lambda: from_edges(src, dst, num_vertices=st.n))
        control, st.dense_bpart_s = timed(
            lambda: get_partitioner("bpart", seed=st.seed).partition(dense, K).assignment)
        checks.check("sharded graph fingerprint equals the dense control's",
                     out["graph_fp"] == dense.fingerprint())
        checks.check("assignment on shards equals the dense control's",
                     out["digest"] == control.fingerprint())
        check_partition(checks, dense, out["parts"], st.seed)
        return quality(control), {"graph": out["graph_fp"], "assignment": out["digest"]}

    def layers(self, st, out, tr, checks, wall_s):
        res = bpart_layers(tr, out["counts"])
        res["graph.generate_s"] = tr.seconds("graph.generate")
        res["graph.fingerprint_s"] = tr.seconds("graph.fingerprint")
        res["graph.arcs"] = out["arcs"]
        res["graph.sharded.add_edges_s"] = tr.seconds("graph.sharded.add_edges")
        res["graph.sharded.finalize_s"] = tr.seconds("graph.sharded.finalize")
        res["graph.dense_build_s"] = st.dense_build_s
        res["partition.sharded_over_dense"] = (
            tr.seconds("partition.combine") / st.dense_bpart_s)
        directory = tempfile.mkdtemp(prefix="probe-", dir=self.workdir)
        try:
            graph = self._build(st, directory, Tracer(False))
            res["graph.sharded.disk_mb"] = sum(
                p.stat().st_size for p in Path(directory).iterdir()) / 1e6
            with tr.span("graph.sharded.scan"):
                scanned = sum(int(np.count_nonzero(idx >= 0))
                              for _, _, _, idx in graph.iter_blocks())
            slots = np.random.default_rng(st.seed).integers(0, graph.num_edges, 10_000)
            with tr.span("graph.sharded.take_arcs"):
                graph.take_arcs(slots)
            graph.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        checks.check("block scan visits every arc", scanned == out["arcs"])
        res["graph.sharded.scan_s"] = tr.seconds("graph.sharded.scan")
        res["graph.sharded.take_arcs_s"] = tr.seconds("graph.sharded.take_arcs")
        return res


# ----------------------------------------------------------------------
class AnalyticsBSP(Workload):
    name = "analytics_bsp"
    why = ("5 paper apps (PageRank, CC, DeepWalk, node2vec, PPR) on BPart and Chunk-V: engines "
           "and cluster do all the work and carry the paper's waiting-time claim as exact numbers")

    # name, engine, program factory, run kwargs (the paper's settings, section 4.1)
    APPS = (
        ("pagerank", "gemini", lambda: PageRank(10), {}),
        ("cc", "gemini", ConnectedComponents, {}),
        ("deepwalk", "knightking", DeepWalk, {"walkers_per_vertex": 5, "max_steps": 4}),
        ("node2vec", "knightking", lambda: Node2Vec(2.0, 0.5),
         {"walkers_per_vertex": 5, "max_steps": 4}),
        ("ppr", "knightking", lambda: PPR(0.1), {"walkers_per_vertex": 5, "max_steps": 60}),
    )

    def setup(self, seed, tr):
        st = self._partitioned(self._load("twitter", 1.0, seed, tr), tr)
        st.chunkv = get_partitioner("chunk-v", seed=seed).partition(st.graph, K).assignment
        return st

    def body(self, st, tr):
        g = st.graph
        out = {"runtime": {}, "waiting": {}, "values": {}, "ledger_json": None,
               "iterations": 0, "gemini_messages": 0, "steps": 0, "walk_messages": 0,
               "supersteps": 0, "ledger_bytes": 0}
        digest = hashlib.sha256()
        for pname, base in (("bpart", st.bpart), ("chunkv", st.chunkv)):
            # fresh assignment: no Gemini structures memoised by an earlier rep
            assignment = PartitionAssignment(g, base.parts, K)
            runtime, waiting = 0.0, []
            for app, engine, make, kwargs in self.APPS:
                with tr.span(f"engines.{engine}.{app}"):
                    if engine == "gemini":
                        r = GeminiEngine(BSPCluster(K)).run(g, assignment, make())
                        out["iterations"] += r.iterations
                        out["gemini_messages"] += r.total_messages
                        out["values"][pname, app] = r.values
                    else:
                        r = WalkEngine(BSPCluster(K), seed=st.seed).run(
                            g, assignment, make(), **kwargs)
                        out["steps"] += r.total_steps
                        out["walk_messages"] += r.total_messages
                with tr.span("cluster.ledger_json"):
                    text = r.ledger.to_json()
                digest.update(text.encode())
                out["ledger_json"] = out["ledger_json"] or text
                out["ledger_bytes"] += len(text)
                out["supersteps"] += r.ledger.num_iterations
                runtime += r.runtime
                waiting.append(r.ledger.waiting_ratio)
            out["runtime"][pname] = runtime
            out["waiting"][pname] = float(np.mean(waiting))
        out["digest"] = digest.hexdigest()
        return out

    def items(self, st, out):
        return out["iterations"] * st.graph.num_edges + out["steps"]

    def finish(self, st, out, checks):
        v = out["values"]
        checks.check("PageRank values agree across the two partitions",
                     np.array_equal(v["bpart", "pagerank"], v["chunkv", "pagerank"]))
        checks.check("CC labels agree across the two partitions",
                     np.array_equal(v["bpart", "cc"], v["chunkv", "cc"]))
        checks.check("BPart waiting ratio below Chunk-V's",
                     out["waiting"]["bpart"] < out["waiting"]["chunkv"])
        text = out["ledger_json"]
        checks.check("TimingLedger from_json(to_json()) is byte-stable",
                     TimingLedger.from_json(text).to_json() == text)
        exact = dict(st.quality)
        exact["sim_runtime_s"] = out["runtime"]["bpart"]
        exact["sim_waiting_ratio"] = out["waiting"]["bpart"]
        exact["sim_speedup_vs_chunkv"] = out["runtime"]["chunkv"] / out["runtime"]["bpart"]
        return exact, {"graph": st.graph_fp, "assignment": st.bpart_fp, "ledgers": out["digest"]}

    def layers(self, st, out, tr, checks, wall_s):
        res = self._partitioned_layers(st, tr)
        for app, engine, _, _ in self.APPS:
            res[f"engines.{engine}.{app}_s"] = tr.seconds(f"engines.{engine}.{app}")
        gemini_s = res["engines.gemini.pagerank_s"] + res["engines.gemini.cc_s"]
        walk_s = sum(res[f"engines.knightking.{a}_s"] for a in ("deepwalk", "node2vec", "ppr"))
        res["engines.gemini.iterations"] = out["iterations"]
        res["engines.gemini.messages"] = out["gemini_messages"]
        res["engines.gemini.arcs_per_s"] = out["iterations"] * st.graph.num_edges / gemini_s
        res["engines.knightking.steps"] = out["steps"]
        res["engines.knightking.messages"] = out["walk_messages"]
        res["engines.knightking.steps_per_s"] = out["steps"] / walk_s
        res["cluster.waiting_ratio_bpart"] = out["waiting"]["bpart"]
        res["cluster.waiting_ratio_chunkv"] = out["waiting"]["chunkv"]
        res["cluster.supersteps"] = out["supersteps"]
        res["cluster.ledger_json_s"] = tr.seconds("cluster.ledger_json")
        res["cluster.ledger_bytes"] = out["ledger_bytes"]
        return res


# ----------------------------------------------------------------------
class Serve(Workload):
    """Open loop in virtual time: Poisson arrivals on a schedule, latency
    from the due arrival time to completion on the simulator's clock, so
    the generator is never late (lateness 0 by construction)."""

    dataset, scale = "twitter", 2.0
    duration, rate = 1.0, 4000.0
    config: dict = {}
    with_chunkv = False
    chaos: ChaosPlan | None = None
    smoke_thins_rate = False  # --smoke shortens the trace, or (True) keeps it and thins the rate

    def setup(self, seed, tr):
        st = self._partitioned(self._load(self.dataset, self.scale, seed, tr), tr)
        st.partitions = [("bpart", st.bpart)]
        if self.with_chunkv:
            st.partitions.append(
                ("chunk-v", get_partitioner("chunk-v", seed=seed).partition(st.graph, K).assignment))
        thin, shorten = (self.shrink, 1) if self.smoke_thins_rate else (1, self.shrink)
        st.spec = WorkloadSpec(duration=self.duration / shorten, rate=self.rate / thin, seed=seed)
        st.config = ServingConfig(**self.config)
        with tr.span("serving.workload.generate"):
            st.trace = st.spec.generate(st.graph)
        return st

    def _serve(self, st, config, tr):
        report = ServingReport(st.spec, config, dataset=self.dataset, num_parts=K,
                               chaos="e2e-drill" if self.chaos else "")
        results = {}
        install_plan(self.chaos)
        try:
            for pname, assignment in st.partitions:
                with tr.span("serving.simulator.run"):
                    results[pname] = ServingSimulator(assignment, config, seed=st.seed).run(st.trace)
                with tr.span("serving.report.render"):
                    report.add(pname, results[pname])  # ServingResult.summary()
        finally:
            install_plan(None)
        with tr.span("serving.report.render"):
            text = report.to_json()
            report.render()
        return results, text

    def body(self, st, tr):
        results, text = self._serve(st, st.config, tr)
        return {"results": results, "report": text,
                "digest": hashlib.sha256(text.encode()).hexdigest()}

    def items(self, st, out):
        return sum(r.num_queries for r in out["results"].values())

    def finish(self, st, out, checks):
        text = out["report"]
        checks.check("ServingReport from_json(to_json()) is byte-stable",
                     ServingReport.from_json(text).to_json() == text)
        for pname, r in out["results"].items():
            answered = int(np.count_nonzero(~np.isnan(r.latency)))
            checks.check(f"arrivals = completed + shed ({pname})",
                         answered == r.completed and answered + int(r.shed.sum()) == r.num_queries)
        r = out["results"]["bpart"]
        exact = dict(st.quality)
        exact["sim_p50_s"] = r.latency_quantile(0.50)
        exact["sim_p99_s"] = r.latency_quantile(0.99)
        exact["sim_availability"] = r.availability(SLO_SECONDS)
        return exact, {"graph": st.graph_fp, "assignment": st.bpart_fp,
                       "workload": st.spec.digest(), "trace": st.trace.fingerprint(),
                       "serving-report/v1": out["digest"]}

    def layers(self, st, out, tr, checks, wall_s):
        res = self._partitioned_layers(st, tr)
        r = out["results"]["bpart"]
        queries = self.items(st, out)
        res["serving.workload.generate_s"] = tr.seconds("serving.workload.generate")
        res["serving.workload.queries"] = st.trace.num_queries
        res["serving.simulator.run_s"] = tr.seconds("serving.simulator.run")
        res["serving.simulator.host_us_per_query"] = res["serving.simulator.run_s"] / queries * 1e6
        res["serving.simulator.batches"] = int(r.batches.sum())
        res["serving.simulator.queries_per_batch"] = int(r.queries.sum()) / int(r.batches.sum())
        res["serving.simulator.messages"] = int(r.messages.sum())
        res["serving.simulator.shed"] = int(r.shed.sum())
        res["serving.simulator.busy_max_share"] = float(r.busy_seconds.max()) / r.makespan
        res["serving.cache.hit_rate"] = float(r.cache_stats["hit_rate"])
        res["serving.cache.evictions"] = int(r.cache_stats["evictions"])
        res["serving.report.render_s"] = tr.seconds("serving.report.render")
        res["serving.report.bytes"] = len(out["report"])
        cache = PartitionAwareCache(K, block_size=st.config.cache_block_size,
                                    capacity=st.config.cache_blocks)
        owners = st.bpart.parts[st.trace.vertex].tolist()
        with tr.span("serving.cache.touch"):
            for machine, vertex in zip(owners, st.trace.vertex.reshape(-1, 1)):
                cache.touch(machine, vertex)
        res["serving.cache.touch_s"] = tr.seconds("serving.cache.touch")
        return res


class ServeLight(Serve):
    name = "serve_light_k1"
    why = ("4 k q/s on livejournal: hottest machine under 10 % busy, one query per batch, 99 % "
           "cache hits - pure per-event overhead of the K=1 loop; batching or cache work cannot help")
    dataset, scale = "livejournal", 1.0
    duration, rate = 5.0, 4000.0

    def layers(self, st, out, tr, checks, wall_s):
        res = super().layers(st, out, tr, checks, wall_s)
        r = out["results"]["bpart"]
        payload = {"latency": r.latency, "shed": r.shed, "kind": r.kind,
                   "machine_of_query": r.machine_of_query, "queries": r.queries,
                   "batches": r.batches, "busy_seconds": r.busy_seconds, "messages": r.messages}
        root = tempfile.mkdtemp(prefix="artifacts-", dir=self.workdir)
        held = os.environ.pop("REPRO_NO_CACHE", None)  # store() is a no-op while it is set
        try:
            with tr.span("bench.artifacts.store"):
                ArtifactStore(root=root).store("servetrace", st.bpart_fp, out["digest"], payload)
            with tr.span("bench.artifacts.load"):
                loaded = ArtifactStore(root=root).load("servetrace", st.bpart_fp, out["digest"])
            path = ArtifactStore(root=root).path_for("servetrace", st.bpart_fp, out["digest"])
            res["bench.artifacts.bytes"] = path.stat().st_size
        finally:
            if held is not None:
                os.environ["REPRO_NO_CACHE"] = held
            shutil.rmtree(root, ignore_errors=True)
        checks.check("servetrace payload survives the artifact store",
                     loaded is not None and np.array_equal(
                         loaded["latency"], r.latency, equal_nan=True))
        res["bench.artifacts.store_s"] = tr.seconds("bench.artifacts.store")
        res["bench.artifacts.load_s"] = tr.seconds("bench.artifacts.load")
        return res


class ServeLoaded(Serve):
    name = "serve_loaded_k1"
    why = ("120 k q/s on twitter with a 16-block cache, BPart and Chunk-V: multi-query batches, "
           "50 % cache hits, shedding - batch service, eviction and the queue bound dominate")
    duration, rate = 0.25, 120000.0
    config = {"cache_blocks": 16}
    with_chunkv = True


class ServeK2Chaos(Serve):
    name = "serve_k2_chaos"
    why = ("60 k q/s at replication 2 with hedging under two crashes and dropped heartbeats: the "
           "replicated loop, health, failover and recovery; guards K=2 against K=1 loop work")
    duration, rate = 0.5, 60000.0
    config = {"cache_blocks": 16, "replication_factor": 2, "hedge_after": 0.0005}
    smoke_thins_rate = True  # the drill needs its 25 heartbeat ticks
    # a fixed drill, like the serving config: machines 1 and 4 crash at heartbeat
    # ticks 5 and 12, and 2 % of all heartbeats are lost in transit
    chaos = ChaosPlan(seed=1, rules=(
        ChaosRule(site="serving.replica.crash", kind="exception", match="m1:h5"),
        ChaosRule(site="serving.replica.crash", kind="exception", match="m4:h12"),
        ChaosRule(site="serving.heartbeat.drop", kind="exception", rate=0.02),
    ))

    def finish(self, st, out, checks):
        exact, info = super().finish(st, out, checks)
        r = out["results"]["bpart"]
        single = ServingConfig(**{**self.config, "replication_factor": 1, "hedge_after": 0.0})
        k1 = self._serve(st, single, Tracer(False))[0]["bpart"]
        st.k1_availability = k1.availability(SLO_SECONDS)
        checks.check("K=2 availability at least K=1's under the same chaos plan",
                     exact["sim_availability"] >= st.k1_availability)
        checks.check("replication factor restored by the end of the trace", r.restored)
        checks.check("a machine went suspect->dead",
                     r.health_transitions.get("suspect->dead", 0) >= 1)
        info["replica-plan/v1"] = r.plan_digest
        return exact, info

    def layers(self, st, out, tr, checks, wall_s):
        res = super().layers(st, out, tr, checks, wall_s)
        r = out["results"]["bpart"]
        with tr.span("serving.replication.plan"):
            plan_replicas(st.bpart, 2)
        res["serving.replication.plan_s"] = tr.seconds("serving.replication.plan")
        res["serving.simulator.crashes"] = r.crashes
        res["serving.simulator.hedges"] = r.hedges
        res["serving.simulator.hedge_wins"] = r.hedge_wins
        res["serving.simulator.redispatched"] = r.redispatched
        res["serving.simulator.rereplication_bytes"] = r.rereplication_bytes
        res["serving.health.transitions"] = sum(r.health_transitions.values())
        return res


REGISTRY = {w.name: w for w in (
    PartitionDense, PartitionSharded, AnalyticsBSP, ServeLight, ServeLoaded, ServeK2Chaos)}
