"""Every metric the benchmark reports: name, unit, direction, bound.

Two kinds. **host** metrics are wall-clock or memory readings of this
process — noisy, reported as medians, allowed to worsen by ``bound``.
**exact** metrics are simulated times, quality numbers and counts that
repeat exactly for a seed; a gated one (``bound == 0``) may not worsen
at all (relative tolerance 1e-9) — "the output bytes did not move",
expressed as numbers. ``bound is None`` means reported, never gated.

``bound`` here is the *same-seed* rule ``compare.py`` applies between
two result documents. ``BENCHMARK.json`` carries the driver's
*cross-seed* bounds for the metrics defined on every workload; the
README explains why those are wider.
"""

from __future__ import annotations

from typing import NamedTuple

WORKLOADS = (
    "partition_dense",
    "partition_sharded",
    "analytics_bsp",
    "serve_light_k1",
    "serve_loaded_k1",
    "serve_k2_chaos",
)
PARTITION = WORKLOADS[:2]
ANALYTICS = WORKLOADS[2:3]
SERVE = WORKLOADS[3:]
BUILT_IN_SETUP = ANALYTICS + SERVE  # BPart runs in setup, not in the body

EXACT_RTOL = 1e-9


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None
    kind: str  # "host" | "exact"
    on: tuple[str, ...]
    what: str


def _m(name, unit, better, bound, kind, on, what) -> Metric:
    return Metric(name, unit, better, bound, kind, tuple(on), what)


# fmt: off
END_TO_END = (
    _m("setup_s", "s", "lower", 0.15, "host", WORKLOADS, "median seconds to build one input from its seed (generation, and BPart where the body does not partition)"),
    _m("wall_s", "s", "lower", 0.10, "host", WORKLOADS, "timed body: per-input median over reps, averaged over the run's inputs"),
    _m("items_per_s", "1/s", "higher", 0.10, "host", WORKLOADS, "workload items per wall second"),
    _m("peak_rss_mb", "MB", "lower", 0.05, "host", WORKLOADS, "child ru_maxrss after the timed reps, malloc thresholds fixed"),
    _m("fail_share", "ratio", "lower", 0.0, "exact", WORKLOADS, "failed checks / attempted checks"),
    _m("edge_cut_ratio", "ratio", "lower", 0.0, "exact", WORKLOADS, "cut arcs / arcs of the BPart k=8 result"),
    _m("max_load_v", "ratio", "lower", 0.0, "exact", WORKLOADS, "largest |V_i| over mean |V_i| of the BPart result (= 1 + bias_v)"),
    _m("max_load_e", "ratio", "lower", 0.0, "exact", WORKLOADS, "largest |E_i| over mean |E_i| of the BPart result (= 1 + bias_e)"),
    _m("bias_v", "ratio", "lower", 0.0, "exact", WORKLOADS, "(max - mean) / mean of |V_i|, BPart result"),
    _m("bias_e", "ratio", "lower", 0.0, "exact", WORKLOADS, "(max - mean) / mean of |E_i|, BPart result"),
    _m("sim_runtime_s", "s", "lower", 0.0, "exact", ANALYTICS, "summed simulated makespan of the 5 apps on BPart"),
    _m("sim_waiting_ratio", "ratio", "lower", 0.0, "exact", ANALYTICS, "mean ledger waiting ratio of the 5 apps on BPart"),
    _m("sim_speedup_vs_chunkv", "ratio", "higher", 0.0, "exact", ANALYTICS, "Chunk-V simulated runtime / BPart simulated runtime"),
    _m("sim_p50_s", "s", "lower", 0.0, "exact", SERVE, "simulated median latency of completed queries, BPart"),
    _m("sim_p99_s", "s", "lower", 0.0, "exact", SERVE, "simulated p99 latency of completed queries, BPart"),
    _m("sim_availability", "ratio", "higher", 0.0, "exact", SERVE, "arrivals answered within 50 ms, BPart"),
)

PER_LAYER = (
    _m("bench.import_s", "s", "lower", None, "host", WORKLOADS, "interpreter start to benchmark modules imported"),
    _m("graph.generate_s", "s", "lower", None, "host", WORKLOADS, "load_dataset / social_edge_batches"),
    _m("graph.arcs", "count", "higher", None, "exact", WORKLOADS, "arcs of the generated graph"),
    _m("graph.fingerprint_s", "s", "lower", None, "host", WORKLOADS, "graph.fingerprint()"),
    _m("graph.sharded.add_edges_s", "s", "lower", None, "host", PARTITION[1:], "ShardedCSRBuilder.add_edges over all batches"),
    _m("graph.sharded.finalize_s", "s", "lower", None, "host", PARTITION[1:], "ShardedCSRBuilder.finalize"),
    _m("graph.sharded.disk_mb", "MB", "lower", None, "exact", PARTITION[1:], "size of the shard directory"),
    _m("graph.sharded.scan_s", "s", "lower", None, "host", PARTITION[1:], "one iter_blocks() pass summing every arc"),
    _m("graph.sharded.take_arcs_s", "s", "lower", None, "host", PARTITION[1:], "take_arcs on 10k seeded slots"),
    _m("graph.dense_build_s", "s", "lower", None, "host", PARTITION[1:], "from_edges on the same batches (dense control)"),
    _m("partition.stream_s", "s", "lower", None, "host", WORKLOADS, "all phase-1 weighted_stream_partition calls of one BPart run"),
    _m("partition.stream_calls", "count", "lower", None, "exact", WORKLOADS, "phase-1 calls (= combine layers run)"),
    _m("partition.stream_vertices", "count", "lower", None, "exact", WORKLOADS, "vertices streamed over all phase-1 calls"),
    _m("partition.stream_vertices_per_s", "1/s", "higher", None, "host", WORKLOADS, "stream_vertices / stream_s"),
    _m("partition.combine_self_s", "s", "lower", None, "host", WORKLOADS, "multi_layer_combine minus its phase-1 calls"),
    _m("partition.combine_layers", "count", "lower", None, "exact", WORKLOADS, "layers multi_layer_combine reported"),
    _m("partition.kernels.buffered_s", "s", "lower", None, "host", PARTITION[:1], "one 32-piece phase-1 pass, kernel=buffered"),
    _m("partition.kernels.incremental_s", "s", "lower", None, "host", PARTITION[:1], "one 32-piece phase-1 pass, kernel=incremental"),
    _m("partition.fennel_s", "s", "lower", None, "host", PARTITION[:1], "FennelPartitioner k=8 (Table 2 comparator)"),
    _m("partition.bpart_over_fennel", "ratio", "lower", None, "host", PARTITION[:1], "BPart wall_s / fennel_s"),
    _m("partition.sharded_over_dense", "ratio", "lower", None, "host", PARTITION[1:], "BPart seconds on shards / on the dense control"),
    _m("partition.metrics_s", "s", "lower", None, "host", BUILT_IN_SETUP, "balance_report (bias, fairness, cut)"),
    _m("partition.fingerprint_s", "s", "lower", None, "host", BUILT_IN_SETUP, "PartitionAssignment.fingerprint()"),
    _m("parallel.stream_jobs2_s", "s", "lower", None, "host", PARTITION[:1], "one 32-piece phase-1 pass with jobs=2"),
    _m("parallel.stream_jobs2_speedup", "ratio", "higher", None, "host", PARTITION[:1], "buffered_s / stream_jobs2_s"),
    _m("engines.gemini.pagerank_s", "s", "lower", None, "host", ANALYTICS, "GeminiEngine.run(PageRank(10)), both partitions"),
    _m("engines.gemini.cc_s", "s", "lower", None, "host", ANALYTICS, "GeminiEngine.run(ConnectedComponents), both partitions"),
    _m("engines.gemini.iterations", "count", "lower", None, "exact", ANALYTICS, "supersteps of the 4 Gemini runs"),
    _m("engines.gemini.messages", "count", "lower", None, "exact", ANALYTICS, "cross-machine messages of the 4 Gemini runs"),
    _m("engines.gemini.arcs_per_s", "1/s", "higher", None, "host", ANALYTICS, "iterations x arcs / Gemini seconds"),
    _m("engines.knightking.deepwalk_s", "s", "lower", None, "host", ANALYTICS, "WalkEngine.run(DeepWalk), both partitions"),
    _m("engines.knightking.node2vec_s", "s", "lower", None, "host", ANALYTICS, "WalkEngine.run(Node2Vec(2, 0.5)), both partitions"),
    _m("engines.knightking.ppr_s", "s", "lower", None, "host", ANALYTICS, "WalkEngine.run(PPR(0.1)), both partitions"),
    _m("engines.knightking.steps", "count", "lower", None, "exact", ANALYTICS, "walker steps of the 6 walk runs"),
    _m("engines.knightking.messages", "count", "lower", None, "exact", ANALYTICS, "cross-machine walker moves of the 6 walk runs"),
    _m("engines.knightking.steps_per_s", "1/s", "higher", None, "host", ANALYTICS, "steps / walk seconds"),
    _m("cluster.waiting_ratio_bpart", "ratio", "lower", None, "exact", ANALYTICS, "mean ledger waiting ratio on BPart"),
    _m("cluster.waiting_ratio_chunkv", "ratio", "lower", None, "exact", ANALYTICS, "mean ledger waiting ratio on Chunk-V"),
    _m("cluster.supersteps", "count", "lower", None, "exact", ANALYTICS, "ledger rows of the 10 runs"),
    _m("cluster.ledger_json_s", "s", "lower", None, "host", ANALYTICS, "TimingLedger.to_json() of the 10 ledgers"),
    _m("cluster.ledger_bytes", "count", "lower", None, "exact", ANALYTICS, "bytes of those 10 documents"),
    _m("serving.workload.generate_s", "s", "lower", None, "host", SERVE, "WorkloadSpec.generate"),
    _m("serving.workload.queries", "count", "higher", None, "exact", SERVE, "arrivals in the trace"),
    _m("serving.simulator.run_s", "s", "lower", None, "host", SERVE, "ServingSimulator.run, all partitions of the body"),
    _m("serving.simulator.host_us_per_query", "us", "lower", None, "host", SERVE, "run_s per served arrival"),
    _m("serving.simulator.batches", "count", "lower", None, "exact", SERVE, "service batches, BPart"),
    _m("serving.simulator.queries_per_batch", "ratio", "higher", None, "exact", SERVE, "admitted queries / batches, BPart"),
    _m("serving.simulator.messages", "count", "lower", None, "exact", SERVE, "remote reads, BPart"),
    _m("serving.simulator.shed", "count", "lower", None, "exact", SERVE, "arrivals shed, BPart"),
    _m("serving.simulator.busy_max_share", "ratio", "lower", None, "exact", SERVE, "hottest machine's busy seconds / makespan, BPart"),
    _m("serving.cache.hit_rate", "ratio", "higher", None, "exact", SERVE, "vertex-level cache hit rate, BPart"),
    _m("serving.cache.evictions", "count", "lower", None, "exact", SERVE, "blocks evicted, BPart"),
    _m("serving.cache.touch_s", "s", "lower", None, "host", SERVE, "every target of the trace through a fresh PartitionAwareCache.touch"),
    _m("serving.replication.plan_s", "s", "lower", None, "host", SERVE[2:], "plan_replicas(assignment, 2)"),
    _m("serving.simulator.crashes", "count", "lower", None, "exact", SERVE[2:], "machines crashed by the chaos plan"),
    _m("serving.simulator.hedges", "count", "lower", None, "exact", SERVE[2:], "hedged duplicates issued"),
    _m("serving.simulator.hedge_wins", "count", "higher", None, "exact", SERVE[2:], "hedges that answered first"),
    _m("serving.simulator.redispatched", "count", "lower", None, "exact", SERVE[2:], "queries re-dispatched off a dying machine"),
    _m("serving.simulator.rereplication_bytes", "count", "lower", None, "exact", SERVE[2:], "bytes re-replicated during recovery"),
    _m("serving.health.transitions", "count", "lower", None, "exact", SERVE[2:], "health state transitions"),
    _m("serving.report.render_s", "s", "lower", None, "host", SERVE, "summary() + ServingReport.to_json() + render()"),
    _m("serving.report.bytes", "count", "lower", None, "exact", SERVE, "bytes of the serving-report/v1 document"),
    _m("bench.artifacts.store_s", "s", "lower", None, "host", SERVE[:1], "servetrace payload into ArtifactStore(root=tmp)"),
    _m("bench.artifacts.load_s", "s", "lower", None, "host", SERVE[:1], "same payload loaded by a second store instance"),
    _m("bench.artifacts.bytes", "count", "lower", None, "host", SERVE[:1], "size of the .npz on disk"),
    _m("telemetry.on_overhead_pct", "%", "lower", None, "host", WORKLOADS, "one body rep with repro.telemetry on vs the untraced median"),
    _m("trace.overhead_pct", "%", "lower", None, "host", WORKLOADS, "the traced body rep vs the untraced median"),
    _m("trace.coverage", "ratio", "higher", None, "host", WORKLOADS, "share of the traced body inside named layer spans"),
)
# fmt: on

CATALOGUE: dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}
