"""Record per-kernel streaming-loop timings to BENCH_hotpaths.json.

Runs the ``test_stream_partition_pass`` workload (10k-vertex social
graph, k = 8) under every registered kernel backend, best-of-N wall
clock, then one dense BPart run (twitter 2.0, k = 8) split by the
``partition.combine.extract`` / ``partition.combine.stream`` spans, and
appends one entry to ``BENCH_hotpaths.json`` at the repo root. The
file is the perf trajectory for the streaming hot path: each PR that
touches the kernels re-runs this script so regressions show up as a new
entry, not a silent drift.

Usage::

    PYTHONPATH=src python benchmarks/record_kernel_baseline.py
    PYTHONPATH=src python benchmarks/record_kernel_baseline.py --repeats 7
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.graph import load_dataset, social_graph
from repro.parallel import resolve_jobs
from repro.partition import get_partitioner
from repro.partition._streamcore import default_alpha, stream_partition
from repro.partition.kernels import available_kernels, get_kernel

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_hotpaths.json"

WORKLOAD = {
    "bench": "test_stream_partition_pass",
    "graph": "social_graph(10000, 16.0, 2.2, rng=1)",
    "num_parts": 8,
    "passes": 1,
}


def time_kernel(g, kernel: str, repeats: int) -> float:
    """Best-of-``repeats`` seconds for one full streaming pass."""
    weights = np.ones(g.num_vertices)
    alpha = default_alpha(g, 8)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        stream_partition(g, 8, vertex_weights=weights, alpha=alpha, kernel=kernel)
        best = min(best, time.perf_counter() - start)
    return best


BPART_WORKLOAD = {"graph": "load_dataset('twitter', 2.0, 1)", "num_parts": 8}


def time_dense_bpart(repeats: int) -> dict:
    """Best-of-``repeats`` dense BPart run and its combine-self split.

    Wall seconds are taken with telemetry off; one extra traced run
    attributes them to subgraph extraction and phase-1 streaming.
    """
    g = load_dataset("twitter", 2.0, 1)
    bpart = get_partitioner("bpart")
    best = min(bpart.partition(g, 8).elapsed for _ in range(repeats))
    telemetry.reset()
    telemetry.set_enabled(True)
    bpart.partition(g, 8)
    telemetry.set_enabled(False)
    by_name: dict[str, float] = {}
    for span in telemetry.registry().spans:
        by_name[span["name"]] = by_name.get(span["name"], 0.0) + span["dur"]
    total = by_name["partition"]
    return {
        **BPART_WORKLOAD,
        "num_vertices": g.num_vertices,
        "num_arcs": g.num_edges,
        "seconds": round(best, 4),
        "extract_subgraph_seconds": round(by_name["partition.combine.extract"], 4),
        "extract_subgraph_share": round(by_name["partition.combine.extract"] / total, 3),
        "stream_share": round(by_name["partition.combine.stream"] / total, 3),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5, help="best-of repeat count")
    args = parser.parse_args()

    g = social_graph(10_000, 16.0, 2.2, rng=1)
    kernels = available_kernels()
    timings: dict[str, float] = {}
    for kernel in kernels:
        # Warm-up outside the timed region.
        time_kernel(g, kernel, 1)
        timings[kernel] = time_kernel(g, kernel, args.repeats)
        print(f"{kernel:12s} {timings[kernel] * 1e3:8.2f} ms")

    scalar = timings["scalar"]
    speedups = {k: scalar / t for k, t in timings.items() if k != "scalar"}
    for k, s in sorted(speedups.items()):
        print(f"{k:12s} {s:5.2f}x vs scalar")

    # Telemetry overhead on the hot loop (the tentpole's < 2% budget):
    # instrumentation records aggregates after the kernel, never inside
    # the per-vertex loop, so enabled-mode cost is a handful of series
    # lookups per streaming pass. Off/on runs are interleaved so machine
    # drift cancels instead of masquerading as overhead.
    auto = get_kernel("auto").name
    off = float("inf")
    on = float("inf")
    telemetry.reset()
    # Alternate which mode goes first in each pair: cache/frequency
    # drift then biases both modes equally instead of whichever ran
    # second, and the best-of floor is order-independent.
    for i in range(max(args.repeats * 4, 20)):
        for flag in ((False, True) if i % 2 == 0 else (True, False)):
            telemetry.set_enabled(flag)
            t = time_kernel(g, auto, 1)
            if flag:
                on = min(on, t)
            else:
                off = min(off, t)
    telemetry.set_enabled(False)
    overhead_pct = (on - off) / off * 100.0
    print(
        f"telemetry    off {off * 1e3:.2f} ms, on {on * 1e3:.2f} ms "
        f"({overhead_pct:+.2f}% on kernel={auto})"
    )

    dense_bpart = time_dense_bpart(args.repeats)
    print(
        f"dense bpart  {dense_bpart['seconds']:.3f} s, extract_subgraph "
        f"{dense_bpart['extract_subgraph_share']:.1%} of the run"
    )

    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": WORKLOAD,
        "auto_resolves_to": get_kernel("auto").name,
        "repeats": args.repeats,
        "seconds": {k: round(t, 6) for k, t in timings.items()},
        "speedup_vs_scalar": {k: round(s, 2) for k, s in speedups.items()},
        "telemetry_overhead": {
            "kernel": auto,
            "off_seconds": round(off, 6),
            "on_seconds": round(on, 6),
            "overhead_pct": round(overhead_pct, 2),
        },
        "dense_bpart": dense_bpart,
        "machine": platform.machine(),
        "cpus_visible": resolve_jobs(0),  # jobs <= 0 means all visible cores
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    history = []
    if OUTPUT.exists():
        history = json.loads(OUTPUT.read_text(encoding="utf-8")).get("entries", [])
    history.append(entry)
    OUTPUT.write_text(
        json.dumps({"entries": history}, indent=1) + "\n", encoding="utf-8"
    )
    print(f"recorded to {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
