"""Extension ablations — re-streaming, comm/compute overlap, stragglers.

Three system-level sweeps beyond the paper's evaluation:

1. **Re-streaming passes** (Nishimura & Ugander): additional streaming
   passes over the full previous assignment tighten Fennel's and
   BPart's cuts at linear extra partitioning cost.
2. **Compute/communication overlap** (the §2.1 pipelining remark):
   overlapped supersteps hide ``min(compute, comm)``; measured on
   PageRank under Hash vs BPart.
3. **Heterogeneous machines**: one straggler machine with a fraction of
   the cores — imbalance no partitioner can repair, quantifying how
   much of the waiting ratio is *partition-induced* vs *hardware-
   induced*.
"""

from __future__ import annotations

from repro.bench.experiments._common import graph_for, partition_with
from repro.bench.harness import ExperimentConfig, ExperimentResult, register_experiment
from repro.bench.report import Table
from repro.cluster import BSPCluster, CostModel, NetworkModel
from repro.engines.gemini import GeminiEngine, PageRank
from repro.partition.metrics import bias, edge_cut_ratio

K = 8


@register_experiment("sysablation", "Extension ablations: restreaming, overlap, stragglers")
def run(config: ExperimentConfig) -> ExperimentResult:
    g = graph_for(config, "twitter")
    result = ExperimentResult(
        "sysablation", "Extension ablations: restreaming, overlap, stragglers"
    )

    t1 = Table(
        "Re-streaming passes (cut ratio / partition seconds)",
        ["algorithm", "passes", "cut ratio", "edge bias", "seconds"],
        note="extra passes tighten the cut at proportional extra cost",
    )
    for name in ("fennel", "bpart"):
        for passes in (1, 2, 3):
            res = partition_with(name, g, K, seed=config.seed, passes=passes)
            a = res.assignment
            t1.add_row(name, passes, edge_cut_ratio(g, a.parts), bias(a.edge_counts), res.elapsed)
            result.data[("restream", name, passes)] = edge_cut_ratio(g, a.parts)
    result.tables.append(t1)

    t2 = Table(
        "Comm/compute overlap (PageRank runtime, ms)",
        ["partition", "plain", "overlapped", "gain"],
        note="overlap hides min(compute, comm) per machine per superstep",
    )
    slow_net = NetworkModel(bandwidth=2e8, latency=10e-6, message_bytes=32)
    for name in ("hash", "bpart"):
        a = partition_with(name, g, K, seed=config.seed).assignment
        plain = GeminiEngine(BSPCluster(K, network=slow_net)).run(g, a, PageRank(10))
        over = GeminiEngine(BSPCluster(K, network=slow_net, overlap=True)).run(
            g, a, PageRank(10)
        )
        gain = 1.0 - over.runtime / plain.runtime
        t2.add_row(name, plain.runtime * 1e3, over.runtime * 1e3, gain)
        result.data[("overlap", name)] = gain
    result.tables.append(t2)

    t3 = Table(
        "Straggler machine (PageRank waiting ratio)",
        ["partition", "uniform cluster", "one machine at 1/4 cores"],
        note="hardware imbalance sets a waiting floor no partitioner can fix",
    )
    fast_net = NetworkModel(latency=0.0)
    cores_straggler = [48] * (K - 1) + [12]
    for name in ("chunk-v", "bpart"):
        a = partition_with(name, g, K, seed=config.seed).assignment
        uniform = GeminiEngine(
            BSPCluster(K, cost_model=CostModel(cores=48), network=fast_net)
        ).run(g, a, PageRank(10))
        straggler = GeminiEngine(
            BSPCluster(K, cost_model=CostModel(cores=cores_straggler), network=fast_net)
        ).run(g, a, PageRank(10))
        t3.add_row(name, uniform.ledger.waiting_ratio, straggler.ledger.waiting_ratio)
        result.data[("straggler", name)] = (
            uniform.ledger.waiting_ratio,
            straggler.ledger.waiting_ratio,
        )
    result.tables.append(t3)
    return result
