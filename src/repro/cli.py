"""Command-line entry point: ``python -m repro`` / ``repro-bench``.

Subcommands (``bench`` is implied when the first argument is an
experiment id)::

    repro-bench --list                      # list experiments
    repro-bench fig10 table3                # run experiments
    repro-bench bench all --scale 0.5       # explicit form
    repro-bench info --dataset twitter      # dataset statistics
    repro-bench partition --dataset twitter --algo bpart --parts 8 \\
                --out parts.npy             # partition a graph to a file
    repro-bench partition --graph edges.txt --algo fennel --parts 4
    repro-bench faults --scale 0.5          # fault-recovery experiment
    repro-bench trace --dataset twitter --algo bpart \\
                --plan plan.json --out trace.json   # Chrome-tracing timeline
    repro-bench metrics --dataset twitter --algo bpart --app pagerank \\
                --format prom               # run a job, dump its telemetry
    repro-bench serve --dataset livejournal --algos bpart,hash \\
                --out report.json           # serving SLOs per partitioner
    repro-bench churn --vertices 2000 --churn 2000 --seed 7 \\
                --out ledger.json           # repartition daemon ledger

``--telemetry out.json`` on bench/partition/trace enables collection
for that run and writes the full snapshot (including the
non-deterministic timer/span section) to the given file.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time

import numpy as np

from repro.bench.harness import (
    ExperimentConfig,
    available_experiments,
    experiment_description,
)
from repro.errors import ConfigurationError, ReproError

__all__ = ["main"]

_SUBCOMMANDS = (
    "bench",
    "partition",
    "info",
    "validate",
    "faults",
    "trace",
    "metrics",
    "scale",
    "serve",
    "churn",
)


def _path_or_inline(arg: str) -> str:
    """``--plan``/``--chaos`` value: a file's content if ``arg`` names one, else ``arg``."""
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            return fh.read()
    if not arg.lstrip().startswith("{"):
        raise ConfigurationError(f"{arg!r} is neither an existing file nor a JSON object")
    return arg


def _load_graph(args: argparse.Namespace):
    """The ``--dataset`` stand-in or the ``--graph`` edge list of one command."""
    from repro.graph import load_dataset, read_edge_list

    if args.dataset:
        return load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    try:
        return read_edge_list(args.graph)
    except OSError as exc:
        raise ConfigurationError(f"cannot read --graph: {exc}") from exc


def _add_telemetry_flag(p: argparse.ArgumentParser) -> argparse.Action:
    return p.add_argument(
        "--telemetry",
        metavar="OUT.json",
        default=None,
        help="enable telemetry for this run and write the full snapshot "
        "(including wall-clock timers/spans) to this JSON file",
    )


def _telemetry_begin(args) -> bool:
    """Enable collection when ``--telemetry`` was given; returns the flag."""
    if getattr(args, "telemetry", None):
        from repro import telemetry

        telemetry.set_enabled(True)
        return True
    return False


def _telemetry_end(args) -> None:
    """Write the snapshot promised by ``--telemetry`` (if given)."""
    if getattr(args, "telemetry", None):
        from repro import telemetry

        with open(args.telemetry, "w", encoding="utf-8") as fh:
            fh.write(
                telemetry.to_json(telemetry.registry(), include_nondeterministic=True)
            )
        print(f"telemetry written to {args.telemetry}")


def _bench_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-bench bench",
        description="Reproduce the tables and figures of the BPart paper (ICPP 2022).",
    )
    p.add_argument("experiments", nargs="*", help="experiment ids, or 'all'")
    p.add_argument("--list", action="store_true", help="list available experiments")
    p.add_argument("--scale", type=float, default=1.0, help="dataset scale multiplier")
    p.add_argument("--seed", type=int, default=1, help="experiment seed")
    p.add_argument("--json", help="also write all results to this JSON file")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run experiments over N worker processes (spawn-safe; "
        "workers warm from the shared artifact cache)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the partition/simulation artifact cache "
        "(equivalent to REPRO_NO_CACHE=1)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-experiment wall-clock bound (parallel runs only); a "
        "worker exceeding it is killed and the experiment retried",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=1,
        help="extra attempts after a worker death or timeout (default 1)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="skip experiments already recorded as successful in the "
        "journal for this --scale/--seed; re-run only what is missing",
    )
    p.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="JSONL outcome journal (default: suite-journal.jsonl in the "
        "artifact cache dir); every completed outcome is fsync-appended",
    )
    p.add_argument(
        "--chaos",
        metavar="PLAN",
        default=None,
        help="fault-injection plan: path to a chaos-plan JSON file or an "
        "inline JSON string (testing the resilience layer itself)",
    )
    _add_telemetry_flag(p).help += (
        "; with --jobs N > 1 only the supervisor's registry (bench.runner.*): "
        "each worker's series, bench.experiments included, stay in the worker"
    )
    return p


def _partition_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-bench partition", description="Partition a graph and report balance."
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", choices=["livejournal", "twitter", "friendster"])
    src.add_argument("--graph", help="path to an edge-list file")
    p.add_argument("--algo", default="bpart", help="partitioner name (see registry)")
    p.add_argument("--parts", type=int, default=8)
    p.add_argument("--scale", type=float, default=1.0, help="dataset scale (datasets only)")
    p.add_argument("--seed", type=int, default=1)
    from repro.partition.kernels import KERNEL_CHOICES

    p.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default=None,
        help="streaming-loop backend for fennel and bpart (default: auto; "
        "all backends produce identical assignments)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the parallel streaming backend of fennel "
        "and bpart (default: $REPRO_JOBS or 1; 0 means all cores; "
        "assignments are bit-identical at every value)",
    )
    p.add_argument("--out", help="write the part-id vector to this .npy file")
    _add_telemetry_flag(p)
    return p


def _info_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-bench info", description="Print dataset statistics (paper Table 1 style)."
    )
    p.add_argument(
        "--dataset",
        choices=["livejournal", "twitter", "friendster"],
        default=None,
        help="one dataset; default: all three",
    )
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=1)
    return p


def _serve_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-bench serve",
        description="Simulate request serving over a partitioned cluster "
        "and report per-partitioner SLOs (p50/p99, throughput, shed rate). "
        "Deterministic: the same seed writes a byte-identical report.",
    )
    p.add_argument(
        "--dataset",
        choices=["livejournal", "twitter", "friendster"],
        default="livejournal",
    )
    p.add_argument("--scale", type=float, default=1.0, help="dataset scale multiplier")
    p.add_argument("--seed", type=int, default=0, help="workload + simulation seed")
    p.add_argument("--parts", type=int, default=8, help="cluster machines")
    p.add_argument(
        "--algos",
        default=None,
        help="comma-separated partitioner names "
        "(default: the serving comparison set incl. hash)",
    )
    p.add_argument("--users", type=int, default=2000, help="simulated users")
    p.add_argument("--duration", type=float, default=1.0, help="simulated seconds")
    p.add_argument("--rate", type=float, default=4000.0, help="aggregate queries/second")
    p.add_argument("--zipf", type=float, default=1.1, help="popularity exponent")
    p.add_argument("--locality", type=float, default=0.6, help="community-query fraction")
    p.add_argument("--walk-frac", type=float, default=0.3, help="walk-query fraction")
    p.add_argument(
        "--chaos",
        metavar="PLAN",
        default=None,
        help="chaos-plan JSON (path or inline) fired at the serving sites",
    )
    p.add_argument(
        "--replication",
        type=int,
        default=1,
        metavar="K",
        help="replicas per partition (K>1 enables health-gated failover "
        "and deterministic recovery)",
    )
    p.add_argument(
        "--hedge-after",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="hedge a waiting query onto a second replica after this "
        "latency budget (0 disables; needs --replication > 1)",
    )
    p.add_argument(
        "--slo",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="latency budget defining availability (replicated runs)",
    )
    p.add_argument("--out", help="write the canonical serving-report/v1 JSON here")
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the servetrace artifact cache (REPRO_NO_CACHE=1)",
    )
    _add_telemetry_flag(p)
    return p


def _run_serve(argv: list[str]) -> int:
    args = _serve_parser().parse_args(argv)
    if args.no_cache:
        os.environ["REPRO_NO_CACHE"] = "1"

    from repro.bench.experiments._common import partition_with
    from repro.bench.experiments.serving_slo import SERVING_PARTITIONERS
    from repro.bench.workloads import run_serving_job
    from repro.graph.datasets import load_dataset
    from repro.resilience import ChaosPlan, active_plan, install_plan
    from repro.serving import ServingConfig, ServingReport, WorkloadSpec

    algos = (
        [a.strip() for a in args.algos.split(",") if a.strip()]
        if args.algos
        else list(SERVING_PARTITIONERS)
    )
    chaos_label = ""
    plan = None
    if args.chaos:
        plan = ChaosPlan.from_json(_path_or_inline(args.chaos))
        chaos_label = f"{len(plan.rules)} rule(s)"

    _telemetry_begin(args)
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    spec = WorkloadSpec(
        users=args.users,
        duration=args.duration,
        rate=args.rate,
        zipf_s=args.zipf,
        locality=args.locality,
        walk_frac=args.walk_frac,
        seed=args.seed,
    )
    config = ServingConfig(
        replication_factor=args.replication,
        hedge_after=args.hedge_after,
        slo_seconds=args.slo,
    )
    report = ServingReport(
        spec,
        config,
        dataset=args.dataset,
        num_parts=args.parts,
        chaos=chaos_label,
    )
    prev = active_plan()
    try:
        if plan is not None:
            install_plan(plan)
        for name in algos:
            assignment = partition_with(
                name, graph, args.parts, seed=args.seed
            ).assignment
            report.add(
                name,
                run_serving_job(
                    graph, assignment, spec=spec, config=config, seed=args.seed
                ),
            )
    finally:
        install_plan(prev)

    print(report.render())
    if args.out:
        # Exact canonical bytes — two same-seed runs diff as identical.
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.out}")
    _telemetry_end(args)
    return 0


def _churn_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-bench churn",
        description="Drive the prioritized-restreaming repartition daemon "
        "over a seeded planted-partition churn scenario and write its "
        "canonical repartition-epoch/v1 ledger. Deterministic: the same "
        "seed writes a byte-identical ledger.",
    )
    p.add_argument("--vertices", type=int, default=2000, help="planted graph size")
    p.add_argument("--groups", type=int, default=4, help="planted communities")
    p.add_argument("--parts", type=int, default=4, help="partition count k")
    p.add_argument("--churn", type=int, default=2000, help="churn-tail events")
    p.add_argument("--delete-frac", type=float, default=0.25, help="deletion share of edge churn")
    p.add_argument("--drift", type=float, default=0.0, help="cross-community insert fraction")
    p.add_argument("--seed", type=int, default=0, help="scenario seed")
    p.add_argument("--epoch-events", type=int, default=500, help="events between restream epochs")
    p.add_argument("--budget", type=int, default=64, help="migration cap per epoch")
    p.add_argument("--final-epochs", type=int, default=2, help="cleanup epochs after the stream")
    p.add_argument(
        "--baselines",
        action="store_true",
        help="also score static hash and periodic full BPart on the same stream",
    )
    p.add_argument("--out", help="write the canonical ledger JSON here")
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the churnledger artifact cache (REPRO_NO_CACHE=1)",
    )
    _add_telemetry_flag(p)
    return p


def _run_churn(argv: list[str]) -> int:
    args = _churn_parser().parse_args(argv)
    if args.no_cache:
        os.environ["REPRO_NO_CACHE"] = "1"

    from repro.bench.experiments.churn import run_daemon_ledger
    from repro.partition.repartition import (
        ChurnScenario,
        PeriodicBPartBaseline,
        static_hash_ari,
    )

    _telemetry_begin(args)
    scenario = ChurnScenario(
        num_vertices=args.vertices,
        num_groups=args.groups,
        churn_events=args.churn,
        delete_frac=args.delete_frac,
        drift=args.drift,
        seed=args.seed,
    )
    ledger = run_daemon_ledger(
        scenario,
        num_parts=args.parts,
        epoch_events=args.epoch_events,
        budget=args.budget,
        final_epochs=args.final_epochs,
    )
    print(f"scenario {scenario.digest()[:12]} — {len(scenario.events())} events")
    for rec in ledger.epochs:
        ari = (
            f" ari {rec['ari_before']:.4f}->{rec['ari_after']:.4f}"
            if "ari_after" in rec
            else ""
        )
        print(
            f"epoch {rec['epoch']:3d}: {rec['migrations']:4d}/{rec['budget']} moves, "
            f"gain {rec['gain']:.2f}, cut {rec['edge_cut_before']:.4f}->"
            f"{rec['edge_cut_after']:.4f}{ari}"
        )
    print(f"{ledger!r} digest {ledger.digest()[:12]}")
    if args.baselines:
        events = scenario.events()
        labels = scenario.labels()
        bpart = PeriodicBPartBaseline(
            args.parts, epoch_events=args.epoch_events, seed=args.seed
        )
        bpart.drain(events)
        last = ledger.epochs[-1] if ledger.epochs else {}
        print(
            f"daemon ARI {last.get('ari_after', float('nan')):.4f} "
            f"({ledger.total_migrations} migrations) | "
            f"hash ARI {static_hash_ari(bpart.mirror.resident, labels, args.parts, seed=args.seed):.4f} (0) | "
            f"bpart-full ARI {bpart.ari(labels):.4f} ({bpart.migrations})"
        )
    if args.out:
        # Exact canonical bytes — two same-seed runs cmp as identical.
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(ledger.to_json())
        print(f"ledger written to {args.out}")
    _telemetry_end(args)
    return 0


def _run_bench(argv: list[str]) -> int:
    args = _bench_parser().parse_args(argv)
    if args.list or not args.experiments:
        for eid in available_experiments():
            print(f"{eid:14s} {experiment_description(eid)}")
        return 0
    ids = args.experiments
    if ids == ["all"]:
        ids = available_experiments()
    if args.no_cache:
        # Environment, not a flag threaded through every call site, so
        # spawn workers inherit the setting too.
        os.environ["REPRO_NO_CACHE"] = "1"
    if args.chaos:
        from repro.resilience import ChaosPlan, install_plan

        install_plan(ChaosPlan.from_json(_path_or_inline(args.chaos)))
    from repro.bench.artifacts import default_cache_dir
    from repro.bench.runner import run_suite

    journal = args.journal or str(default_cache_dir() / "suite-journal.jsonl")
    _telemetry_begin(args)
    config = ExperimentConfig(scale=args.scale, seed=args.seed)
    start = time.perf_counter()
    outcomes = run_suite(
        ids,
        config,
        jobs=max(1, args.jobs),
        timeout=args.timeout,
        retries=max(0, args.retries),
        journal=journal,
        resume=args.resume,
    )
    total = time.perf_counter() - start
    status = 0
    collected = []
    for out in outcomes:
        if not out.ok:
            print(f"experiment {out.experiment_id} failed:\n{out.error}", file=sys.stderr)
            status = 1
            continue
        print(out.render())
        cache = out.cache or {}
        notes = ""
        if out.resumed:
            notes = ", resumed from journal"
        elif out.attempts > 1:
            notes = f", {out.attempts} attempts"
        print(
            f"[{out.experiment_id} finished in {out.wall_seconds:.1f}s — "
            f"cache {cache.get('hits', 0)} hits / {cache.get('misses', 0)} misses"
            f"{notes}]\n"
        )
        entry = out.payload() or {"experiment_id": out.experiment_id}
        entry["wall_time_s"] = out.wall_seconds
        entry["cache"] = cache
        if out.resumed:
            entry["resumed"] = True
        collected.append(entry)
    hits = sum(o.cache.get("hits", 0) for o in outcomes if o.cache)
    misses = sum(o.cache.get("misses", 0) for o in outcomes if o.cache)
    print(
        f"[suite: {len(collected)}/{len(outcomes)} experiments in {total:.1f}s "
        f"(jobs={max(1, args.jobs)}) — cache {hits} hits / {misses} misses]"
    )
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "scale": args.scale,
                    "seed": args.seed,
                    "jobs": max(1, args.jobs),
                    "suite_wall_time_s": total,
                    "cache_totals": {"hits": hits, "misses": misses},
                    "results": collected,
                },
                fh,
                indent=1,
            )
        print(f"results written to {args.json}")
    _telemetry_end(args)
    return status


def _run_partition(argv: list[str]) -> int:
    from repro.graph import summarize
    from repro.partition import balance_report, get_partitioner

    args = _partition_parser().parse_args(argv)
    _telemetry_begin(args)
    # Only the flags the user gave are passed; one the algorithm's
    # constructor does not take is an error, not silently dropped.
    flags = {f: getattr(args, f) for f in ("kernel", "jobs") if getattr(args, f) is not None}
    accepted = inspect.signature(type(get_partitioner(args.algo))).parameters
    for flag in flags:
        if flag not in accepted:
            raise ConfigurationError(f"{args.algo} takes no --{flag}")
    partitioner = get_partitioner(args.algo, seed=args.seed, **flags)
    g = _load_graph(args)
    print(f"graph: {summarize(g)}")
    result = partitioner.partition(g, args.parts)
    print(f"{args.algo} into {args.parts} parts in {result.elapsed:.3f}s")
    print(balance_report(result.assignment))
    if args.out:
        np.save(args.out, result.assignment.parts)
        print(f"part ids written to {args.out}")
    _telemetry_end(args)
    return 0


def _run_info(argv: list[str]) -> int:
    from repro.graph import DATASETS, load_dataset, summarize

    args = _info_parser().parse_args(argv)
    names = [args.dataset] if args.dataset else sorted(DATASETS)
    for name in names:
        spec = DATASETS[name]
        g = load_dataset(name, scale=args.scale, seed=args.seed)
        print(f"{name}: {summarize(g)}")
        print(
            f"  stands in for {spec.paper_vertices:,} vertices / "
            f"{spec.paper_edges:,} edges (paper Table 1, d̄={spec.avg_degree})"
        )
    return 0


def _validate_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-bench validate",
        description="Check the paper's core claims against fresh runs.",
    )
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=1)
    return p


def _run_validate(argv: list[str]) -> int:
    from repro.bench.claims import check_claims

    args = _validate_parser().parse_args(argv)
    results = check_claims(ExperimentConfig(scale=args.scale, seed=args.seed))
    for r in results:
        print(r.render())
    failed = sum(1 for r in results if not r.passed)
    print(f"\n{len(results) - failed}/{len(results)} claims hold")
    return 1 if failed else 0


def _trace_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-bench trace",
        description="Run one job and export its BSP schedule as a Chrome-tracing "
        "timeline (chrome://tracing / Perfetto). With --plan, faults render as "
        "instant markers on the crashed/straggling machine's track.",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", choices=["livejournal", "twitter", "friendster"])
    src.add_argument("--graph", help="path to an edge-list file")
    p.add_argument("--algo", default="bpart", help="partitioner name (see registry)")
    p.add_argument(
        "--app",
        default="deepwalk",
        help="application to trace (walk apps, 'pagerank', or 'cc')",
    )
    p.add_argument("--parts", type=int, default=8)
    p.add_argument("--scale", type=float, default=1.0, help="dataset scale (datasets only)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--walkers", type=int, default=5, help="walkers per vertex (walk apps)")
    p.add_argument(
        "--plan",
        help="fault plan: path to a FaultPlan JSON file, or an inline JSON string",
    )
    p.add_argument("--out", default="trace.json", help="output trace file")
    _add_telemetry_flag(p)
    return p


def _check_app(name: str) -> None:
    """``--app`` of ``trace`` / ``metrics``, rejected before any graph is loaded."""
    from repro.bench.workloads import ITERATION_APPS, WALK_APPS

    if name not in WALK_APPS + ITERATION_APPS:
        raise ConfigurationError(
            f"unknown app {name!r}; choose from {', '.join(WALK_APPS + ITERATION_APPS)}"
        )


def _run_trace(argv: list[str]) -> int:
    from repro.bench.artifacts import get_assignment
    from repro.bench.workloads import run_on_cluster
    from repro.cluster import BSPCluster, FaultPlan
    from repro.cluster.trace import write_chrome_trace
    from repro.graph import summarize

    args = _trace_parser().parse_args(argv)
    telemetry_on = _telemetry_begin(args)
    _check_app(args.app)
    g = _load_graph(args)
    job = f"{args.dataset or 'graph'}-{args.algo}-{args.app}"
    print(f"graph: {summarize(g)}")
    plan = FaultPlan.from_json(_path_or_inline(args.plan)) if args.plan else None
    assignment = get_assignment(g, args.algo, num_parts=args.parts, seed=args.seed)
    cluster = BSPCluster(args.parts, plan, graph=g, assignment=assignment)
    run_on_cluster(
        cluster, g, assignment, args.app, walkers_per_vertex=args.walkers, seed=args.seed
    )
    ledger = cluster.ledger
    if plan is not None:
        report = cluster.report()
        print(
            f"faults: {len(report.crashes)} crash(es), "
            f"recovery {report.recovery_seconds:.4f}s, "
            f"checkpoints {report.num_checkpoints} "
            f"({report.checkpoint_seconds:.4f}s)"
        )
    extra = None
    if telemetry_on:
        from repro import telemetry

        extra = telemetry.spans_to_chrome_events(telemetry.registry())
    write_chrome_trace(ledger, args.out, job_name=job, extra_events=extra)
    print(
        f"{ledger.num_iterations} supersteps, {len(ledger.events)} event markers, "
        f"runtime {ledger.total_runtime:.4f}s, waiting ratio {ledger.waiting_ratio:.3f}"
    )
    print(f"trace written to {args.out} (open in chrome://tracing or Perfetto)")
    _telemetry_end(args)
    return 0


def _metrics_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-bench metrics",
        description="Run a partition (and optionally an application) with "
        "telemetry enabled and print the collected metrics. The partitioner "
        "runs directly — never through the artifact cache — so kernel and "
        "combine instrumentation always fires.",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", choices=["livejournal", "twitter", "friendster"])
    src.add_argument("--graph", help="path to an edge-list file")
    p.add_argument("--algo", default="bpart", help="partitioner name (see registry)")
    p.add_argument(
        "--app",
        default=None,
        help="optionally drive an application too (walk apps, 'pagerank', 'cc')",
    )
    p.add_argument("--parts", type=int, default=8)
    p.add_argument("--scale", type=float, default=1.0, help="dataset scale (datasets only)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--walkers", type=int, default=1, help="walkers per vertex (walk apps)")
    p.add_argument(
        "--format",
        choices=["table", "json", "prom"],
        default="table",
        help="output rendering (prom = Prometheus text exposition)",
    )
    p.add_argument(
        "--deterministic-only",
        action="store_true",
        help="JSON output: omit the wall-clock timer/span section "
        "(the byte-stable subset)",
    )
    p.add_argument("--out", default=None, help="write the rendering to this file")
    return p


def _run_metrics(argv: list[str]) -> int:
    from repro import telemetry
    from repro.graph import summarize
    from repro.partition import get_partitioner

    args = _metrics_parser().parse_args(argv)
    if args.app:
        _check_app(args.app)
    telemetry.set_enabled(True)
    telemetry.reset()
    g = _load_graph(args)
    print(f"graph: {summarize(g)}", file=sys.stderr)

    result = get_partitioner(args.algo, seed=args.seed).partition(g, args.parts)

    if args.app:
        from repro.bench.workloads import run_on_cluster
        from repro.cluster import BSPCluster

        run_on_cluster(
            BSPCluster(args.parts),
            g,
            result.assignment,
            args.app,
            walkers_per_vertex=args.walkers,
            seed=args.seed,
        )

    reg = telemetry.registry()
    if args.format == "json":
        text = telemetry.to_json(
            reg, include_nondeterministic=not args.deterministic_only
        )
    elif args.format == "prom":
        text = telemetry.to_prometheus(reg)
    else:
        text = telemetry.render_table(reg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"metrics written to {args.out}")
    else:
        print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry; returns a process exit code (2 for an error the library raised)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        cmd, rest = argv[0], argv[1:]
    else:
        cmd, rest = "bench", argv
    try:
        return _dispatch(cmd, rest)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(cmd: str, rest: list[str]) -> int:
    if cmd == "partition":
        return _run_partition(rest)
    if cmd == "info":
        return _run_info(rest)
    if cmd == "validate":
        return _run_validate(rest)
    if cmd == "trace":
        return _run_trace(rest)
    if cmd == "metrics":
        return _run_metrics(rest)
    if cmd == "serve":
        return _run_serve(rest)
    if cmd == "churn":
        return _run_churn(rest)
    if cmd == "scale":
        # Out-of-core scale sweep lives in its own module: it forks
        # subprocesses per cell and has no use for the shared flags here.
        from repro.bench.scale import main as scale_main

        return scale_main(rest)
    if cmd == "faults":
        # Shorthand for the fault-recovery experiment: ``repro-bench
        # faults --scale 0.5`` == ``repro-bench bench faults --scale 0.5``.
        return _run_bench(["faults", *rest])
    return _run_bench(rest)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
