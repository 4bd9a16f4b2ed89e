"""Out-of-core scale sweep: peak RSS + throughput, dense vs sharded.

``repro-bench scale`` measures what the sharded substrate actually buys:
for a range of vertex counts (default 2^17 … 2^21) it runs one *cell*
per (representation, kernel) in a **fresh subprocess** — building the
graph and Fennel-partitioning it — and records the child's
``ru_maxrss`` peak together with partition throughput (vertices/sec).
A subprocess per cell is the only honest way to compare peaks: within
one process the allocator never returns freed arena pages, so a dense
cell would inflate every later sharded reading.

Cells:

- ``dense`` × kernel (``incremental``, ``buffered``) — in-RAM
  ``social_graph`` build + ``stream_partition``;
- ``sharded`` — the same distribution streamed through
  :func:`~repro.graph.generators.social_edge_batches` into a
  :class:`~repro.graph.sharded.ShardedCSRBuilder`, partitioned straight
  off the memory-mapped shards.

Every invocation also runs an in-process **parity control**: a small
graph is spilled with :func:`~repro.graph.sharded.spill_csr` and all
five partitioners must produce bit-identical assignments on both
representations. ``--demo`` runs the acceptance workload (2^20
vertices, d̄ = 32 → ≈ 16.8 M edges) and asserts the sharded peak stays
under 40 % of the dense peak. ``--demo-oom`` runs the
larger-than-RAM demonstration: a graph whose dense CSR exceeds a hard
``RLIMIT_AS`` budget — the dense control cell must die of
``MemoryError`` while the sharded build and partition complete inside
the same budget. ``--record`` appends the results to
``BENCH_hotpaths.json`` / ``BENCH_suite.json``.

Cell subprocesses are hermetic: the parent snapshots the repro
environment knobs (cache dir, spill dir, chaos plan, telemetry, jobs)
and re-applies them in the child before any repro import, so a sweep
behaves the same whether those knobs arrived via the environment or
were set programmatically in the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

__all__ = ["main", "run_cell", "parity_control"]

DEFAULT_EXPONENTS = (17, 18, 19, 20, 21)
DEFAULT_AVG_DEGREE = 16.0
DEFAULT_PARTS = 8
DENSE_KERNELS = ("incremental", "buffered")
PARITY_ALGOS = ("fennel", "bpart", "ldg", "hash", "chunk-v")

#: Acceptance bound: sharded peak RSS / dense peak RSS on the demo cell.
DEMO_RSS_BOUND = 0.40

#: Environment knobs re-applied inside every cell subprocess, mirroring
#: how bench/runner.py keeps its workers hermetic: same cache, same
#: spill root, same chaos plan, same telemetry switch.
_PROPAGATED_ENV = (
    "REPRO_CACHE_DIR",
    "REPRO_NO_CACHE",
    "REPRO_SPILL_DIR",
    "REPRO_CHAOS",
    "REPRO_TELEMETRY",
    "REPRO_JOBS",
)

#: >RAM demonstration shape: the dense CSR (indptr int64 + indices
#: int32 ≈ 8n + 4·n·d̄ bytes ≈ 209 MB) does not fit the address-space
#: budget, while one finalize bucket + mapped shards do.
OOM_DEMO_VERTICES = 1 << 20
OOM_DEMO_DEGREE = 96.0
OOM_DEMO_BUDGET_MB = 352
#: 2^11-vertex shards keep the power-law hub shard's mapping (and its
#: finalize bucket) a small fraction of the graph; more shards would
#: exceed common open-fd limits, since the builder keeps one bucket
#: file handle per shard.
OOM_DEMO_SHARD = 1 << 11
#: Draws per generator batch in the demo — small enough that the batch
#: temporaries (sample + symmetrize + bucket sort) fit the budget.
OOM_DEMO_BATCH = 1 << 18


def _env_snapshot() -> dict:
    return {key: os.environ[key] for key in _PROPAGATED_ENV if key in os.environ}


def _checksum(parts: np.ndarray) -> str:
    """Short stable digest of an assignment, for cross-cell comparison."""
    return hashlib.sha256(np.ascontiguousarray(parts).tobytes()).hexdigest()[:16]


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_cell(
    kind: str,
    n: int,
    avg_degree: float,
    num_parts: int,
    seed: int,
    kernel: str,
    spill_dir: str | None,
    shard_size: int | None,
    jobs: int | None = None,
    mem_cap_mb: int | None = None,
    batch_size: int | None = None,
) -> dict:
    """Build + partition one cell; runs inside the child process."""
    from repro.graph import from_edges, social_edge_batches
    from repro.graph.sharded import DEFAULT_SHARD_SIZE, ShardedCSRBuilder
    from repro.partition._streamcore import default_alpha, stream_partition
    from repro.utils import native

    if mem_cap_mb is not None:
        import resource

        for key in ("sample", "fennel"):  # map the compiled libraries before the cap,
            native.library(key)  # which then budgets graph and partition memory only
        cap = int(mem_cap_mb) * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    # Both representations consume the *same* batched edge stream, so
    # the resulting CSRs are arc-for-arc identical and the assignment
    # checksums must match across cells at every scale. (The realised
    # sample depends on batch_size, so cells compared by checksum must
    # share it; the >RAM demo shrinks it to keep batch temporaries
    # inside the RLIMIT_AS budget.)
    t0 = time.perf_counter()
    batches = social_edge_batches(
        n, avg_degree, 2.3, rng=seed, batch_size=batch_size or (1 << 20)
    )
    if kind == "dense":
        chunks = [np.stack([s, d]) for s, d in batches]
        graph = from_edges(
            np.concatenate([c[0] for c in chunks]),
            np.concatenate([c[1] for c in chunks]),
            n,
        )
        del chunks
    else:
        builder = ShardedCSRBuilder(
            spill_dir, num_vertices=n, shard_size=shard_size or DEFAULT_SHARD_SIZE
        )
        for src, dst in batches:
            builder.add_edges(src, dst)
        graph = builder.finalize()
        if mem_cap_mb is not None:
            # Streaming passes never revisit a shard before the next
            # pass, so a deep LRU only pins dead mappings — and under
            # RLIMIT_AS mapped hub shards are budget spent. Reopen
            # with the minimum useful depth.
            from repro.graph import open_sharded

            del graph
            graph = open_sharded(spill_dir, max_open_shards=2)
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parts = stream_partition(
        graph,
        num_parts,
        vertex_weights=np.ones(graph.num_vertices),
        alpha=default_alpha(graph, num_parts),
        kernel=kernel,
        jobs=jobs,
    )
    partition_s = time.perf_counter() - t0
    # What a dense CSR of this graph occupies: the denominator of the
    # "well under dense RAM" claim (indptr int64 + indices int32).
    csr_mb = ((n + 1) * 8 + graph.num_edges * 4) / 2**20
    if kernel == "parallel" or (kernel == "auto" and (jobs or 1) > 1):
        effective_kernel = "parallel"
    elif kind == "dense":
        effective_kernel = kernel
    else:
        effective_kernel = "buffered"
    report = {
        "kind": kind,
        "kernel": effective_kernel,
        "num_vertices": n,
        "num_arcs": int(graph.num_edges),
        "num_parts": num_parts,
        "seed": seed,
        "jobs": jobs or 1,
        "build_seconds": round(build_s, 3),
        "partition_seconds": round(partition_s, 3),
        "vertices_per_sec": round(n / partition_s) if partition_s > 0 else None,
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "csr_mb": round(csr_mb, 1),
        "checksum": _checksum(parts),
    }
    if mem_cap_mb is not None:
        report["mem_cap_mb"] = int(mem_cap_mb)
    return report


def _cell_entry(queue, kwargs: dict, env: dict | None = None) -> None:  # pragma: no cover
    # Re-apply the parent's repro knobs before the first repro import,
    # so module-level env reads (cache dir, telemetry, chaos) see them.
    for key, value in (env or {}).items():
        os.environ[key] = value
    try:
        queue.put(_run_cell(**kwargs))
    except MemoryError:
        queue.put({"error": "MemoryError", "kind": kwargs["kind"]})
    except BaseException as exc:  # report, don't hang the parent
        queue.put({"error": f"{type(exc).__name__}: {exc}", "kind": kwargs["kind"]})


def run_cell(
    kind: str,
    n: int,
    avg_degree: float,
    num_parts: int,
    seed: int,
    kernel: str = "incremental",
    spill_root: str | None = None,
    shard_size: int | None = None,
    jobs: int | None = None,
    mem_cap_mb: int | None = None,
    batch_size: int | None = None,
) -> dict:
    """Run one cell in a fresh subprocess and return its report dict.

    ``jobs`` feeds the partition stream; ``mem_cap_mb`` applies a hard
    ``RLIMIT_AS`` inside the child (the >RAM demonstration's budget).
    Transient shard directories land under ``spill_root``, defaulting
    to the repo's spill-root policy (``$REPRO_SPILL_DIR`` >
    ``$REPRO_CACHE_DIR`` > ``~/.cache``) rather than ``$TMPDIR``.
    """
    spill_dir = None
    if kind == "sharded":
        if spill_root is None:
            from repro.graph.sharded import default_spill_root

            root = default_spill_root()
            root.mkdir(parents=True, exist_ok=True)
            spill_root = str(root)
        spill_dir = tempfile.mkdtemp(prefix=f"scale-n{n}-", dir=spill_root)
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.SimpleQueue()
    kwargs = {
        "kind": kind,
        "n": n,
        "avg_degree": avg_degree,
        "num_parts": num_parts,
        "seed": seed,
        "kernel": kernel,
        "spill_dir": spill_dir,
        "shard_size": shard_size,
        "jobs": jobs,
        "mem_cap_mb": mem_cap_mb,
        "batch_size": batch_size,
    }
    proc = ctx.Process(target=_cell_entry, args=(queue, kwargs, _env_snapshot()))
    proc.start()
    proc.join()
    try:
        if not queue.empty():
            result = queue.get()
        else:
            result = {
                "error": f"cell process died (exit code {proc.exitcode})",
                "kind": kind,
            }
    finally:
        if spill_dir is not None:
            shutil.rmtree(spill_dir, ignore_errors=True)
    return result


def parity_control(seed: int = 1, *, n: int = 4096, num_parts: int = 6) -> dict:
    """Small in-process control: every partitioner must be bit-identical
    on the dense graph and its spilled twin."""
    from repro.graph import social_graph, spill_csr
    from repro.partition import get_partitioner

    dense = social_graph(n, 12.0, 2.3, rng=seed)
    tmp = tempfile.mkdtemp(prefix="scale-parity-")
    try:
        sharded = spill_csr(dense, tmp, shard_size=max(256, n // 8))
        outcome = {}
        for algo in PARITY_ALGOS:
            a = get_partitioner(algo, seed=seed).partition(dense, num_parts)
            b = get_partitioner(algo, seed=seed).partition(sharded, num_parts)
            outcome[algo] = bool(
                np.array_equal(a.assignment.parts, b.assignment.parts)
            )
        return outcome
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _append_entry(path: Path, entry: dict) -> None:
    payload = {"entries": []}
    if path.is_file():
        payload = json.loads(path.read_text(encoding="utf-8"))
    payload.setdefault("entries", []).append(entry)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-bench scale",
        description="Out-of-core scale sweep: peak RSS and vertices/sec "
        "per (representation, kernel) cell, each in a fresh subprocess.",
    )
    p.add_argument(
        "--scales",
        type=int,
        nargs="+",
        default=list(DEFAULT_EXPONENTS),
        metavar="EXP",
        help="log2 vertex counts to sweep (default: 17 … 21)",
    )
    p.add_argument("--avg-degree", type=float, default=DEFAULT_AVG_DEGREE)
    p.add_argument("--parts", type=int, default=DEFAULT_PARTS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--mode",
        choices=["all", "sharded", "dense"],
        default="all",
        help="which representations to run ('sharded' lets CI sweep under "
        "a ulimit -v cap a dense build would blow through)",
    )
    p.add_argument(
        "--demo",
        action="store_true",
        help="acceptance demo: 2^20 vertices at d̄=32 (≈16.8M edges), "
        f"asserting sharded peak RSS < {DEMO_RSS_BOUND:.0%}% of dense",
    )
    p.add_argument(
        "--demo-oom",
        action="store_true",
        help=">RAM demonstration: graph whose dense CSR "
        f"(≈{(OOM_DEMO_VERTICES + 1) * 8 / 2**20 + OOM_DEMO_VERTICES * OOM_DEMO_DEGREE * 4 / 2**20:.0f}MB) "
        f"exceeds a {OOM_DEMO_BUDGET_MB}MB RLIMIT_AS budget — the dense "
        "control must MemoryError while sharded build+partition complete",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for every cell's partition stream "
        "(default: $REPRO_JOBS or 1)",
    )
    p.add_argument(
        "--shard-size",
        type=int,
        default=None,
        help="vertices per shard for the sharded cells (default: 2^17; "
        "smaller shards shrink the finalize-time bucket sort, which "
        "dominates the sharded peak at small vertex counts)",
    )
    p.add_argument(
        "--spill-root",
        default=None,
        help="directory for the sweep's transient shard dirs (default: $TMPDIR)",
    )
    p.add_argument(
        "--record",
        action="store_true",
        help="append results to BENCH_hotpaths.json / BENCH_suite.json "
        "in the current directory",
    )
    return p


def _fmt(cell: dict) -> str:
    if "error" in cell:
        return f"    {cell['kind']:>8s}: FAILED — {cell['error']}"
    return (
        f"    {cell['kind']:>8s}/{cell['kernel']:<12s} "
        f"rss={cell['peak_rss_mb']:8.1f}MB  csr={cell['csr_mb']:7.1f}MB  "
        f"build={cell['build_seconds']:6.2f}s  "
        f"part={cell['partition_seconds']:6.2f}s  "
        f"{cell['vertices_per_sec']:>9,d} v/s  parts={cell['checksum']}"
    )


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    status = 0

    parity = parity_control(args.seed)
    ok = all(parity.values())
    print(f"parity control (n=4096, 5 partitioners, dense vs sharded): "
          f"{'all identical' if ok else f'MISMATCH {parity}'}")
    if not ok:
        status = 1

    sweep_cells: list[dict] = []
    for exp in args.scales:
        n = 1 << exp
        print(f"n = 2^{exp} = {n:,} (d̄≈{args.avg_degree:g}, k={args.parts})")
        cells: list[dict] = []
        if args.mode in ("all", "dense"):
            for kernel in DENSE_KERNELS:
                cells.append(
                    run_cell(
                        "dense", n, args.avg_degree, args.parts, args.seed,
                        kernel=kernel, jobs=args.jobs,
                    )
                )
        if args.mode in ("all", "sharded"):
            cells.append(
                run_cell(
                    "sharded", n, args.avg_degree, args.parts, args.seed,
                    spill_root=args.spill_root, shard_size=args.shard_size,
                    jobs=args.jobs,
                )
            )
        for cell in cells:
            cell["scale_exp"] = exp
            print(_fmt(cell))
            if "error" in cell:
                status = 1
        sweep_cells.extend(cells)

    oom_cells: list[dict] = []
    if args.demo_oom:
        n, deg, cap = OOM_DEMO_VERTICES, OOM_DEMO_DEGREE, OOM_DEMO_BUDGET_MB
        csr_mb = ((n + 1) * 8 + n * deg * 4) / 2**20
        print(
            f"demo-oom: n = {n:,}, d̄≈{deg:g}, dense CSR ≈{csr_mb:.0f}MB "
            f"vs RLIMIT_AS budget {cap}MB"
        )
        dense = run_cell(
            "dense", n, deg, args.parts, args.seed,
            kernel="incremental", mem_cap_mb=cap, batch_size=OOM_DEMO_BATCH,
        )
        # The partition stream stays on the explicit serial buffered
        # kernel: a parallel stream would re-open the sharded graph in
        # every worker, and under RLIMIT_AS each worker's mapped-shard
        # LRU competes with the same address-space budget. Finalize
        # peaks at one bucket's bounded working set.
        sharded = run_cell(
            "sharded", n, deg, args.parts, args.seed,
            kernel="buffered",
            spill_root=args.spill_root,
            shard_size=args.shard_size or OOM_DEMO_SHARD,
            mem_cap_mb=cap, batch_size=OOM_DEMO_BATCH,
        )
        for cell in (dense, sharded):
            cell["sweep"] = "oom_demo"
            print(_fmt(cell))
        oom_cells = [dense, sharded]
        dense_oomed = dense.get("error") == "MemoryError"
        sharded_ok = "error" not in sharded
        exceeds = sharded_ok and sharded["csr_mb"] > cap
        print(
            "demo-oom: dense control "
            + ("hit MemoryError as required" if dense_oomed else
               f"UNEXPECTEDLY {'succeeded' if 'error' not in dense else dense['error']}")
            + "; sharded "
            + (f"completed (graph {sharded['csr_mb']:.0f}MB > budget {cap}MB: "
               f"{'yes' if exceeds else 'NO'})" if sharded_ok
               else f"FAILED — {sharded.get('error')}")
        )
        oom_passed = dense_oomed and sharded_ok and exceeds
        if not oom_passed:
            status = 1

    demo_cells: list[dict] = []
    demo_ratio = None
    if args.demo:
        n, deg = 1 << 20, 32.0
        print(f"demo: n = {n:,}, d̄≈{deg:g} (≈{int(n * deg / 2):,} edges)")
        dense = run_cell("dense", n, deg, args.parts, args.seed, kernel="incremental")
        # 2^15-vertex shards: the sharded peak is one bucket's
        # sort working set at finalize, and the default 2^17 shard
        # size leaves only 8 jumbo buckets at this vertex count.
        sharded = run_cell(
            "sharded", n, deg, args.parts, args.seed,
            spill_root=args.spill_root,
            shard_size=args.shard_size or (1 << 15),
        )
        for cell in (dense, sharded):
            print(_fmt(cell))
        demo_cells = [dense, sharded]
        if "error" in dense or "error" in sharded:
            status = 1
        else:
            demo_ratio = sharded["peak_rss_mb"] / dense["peak_rss_mb"]
            same = dense["checksum"] == sharded["checksum"]
            print(
                f"demo: sharded/dense peak RSS = {demo_ratio:.3f} "
                f"(bound {DEMO_RSS_BOUND}), assignments "
                f"{'identical' if same else 'DIFFER'}"
            )
            if demo_ratio >= DEMO_RSS_BOUND or not same:
                status = 1

    if args.record:
        import platform

        stamp = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
        try:
            cpus = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):  # pragma: no cover - non-linux
            cpus = os.cpu_count() or 1
        _append_entry(
            Path("BENCH_hotpaths.json"),
            {
                "timestamp": stamp,
                "workload": {
                    "bench": "scale_sweep",
                    "graph": "social_edge_batches/social_graph(2.3)",
                    "avg_degree": args.avg_degree,
                    "num_parts": args.parts,
                    "seed": args.seed,
                },
                "cells": sweep_cells + oom_cells + demo_cells,
                "parity_control": parity,
                "machine": platform.machine(),
                "cpus_visible": cpus,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        )
        entry = {
            "timestamp": stamp,
            "workload": "repro-bench scale",
            "scales": [f"2^{e}" for e in args.scales],
            "mode": args.mode,
            "parity_control_identical": ok,
            "machine": platform.machine(),
            "cpus_visible": cpus,
            "python": platform.python_version(),
        }
        if oom_cells:
            entry["oom_demo_passed"] = oom_passed
            entry["oom_budget_mb"] = OOM_DEMO_BUDGET_MB
        if demo_ratio is not None:
            entry["demo_rss_ratio"] = round(demo_ratio, 3)
            entry["demo_rss_bound"] = DEMO_RSS_BOUND
        _append_entry(Path("BENCH_suite.json"), entry)
        print("recorded to BENCH_hotpaths.json / BENCH_suite.json")

    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
