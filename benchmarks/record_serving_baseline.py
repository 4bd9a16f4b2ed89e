"""Record the serving layer's throughput baseline to BENCH_suite.json.

Runs ``repro-bench serve`` twice in fresh subprocesses against a
private artifact-cache directory — once cold (simulator executes) and
once warm (servetrace replay) — and records wall time for both next to
the simulated SLOs of the bpart entry. The cold run is the perf
trajectory for the discrete-event loop itself; the warm run tracks the
artifact replay path; the report digest pins determinism (a digest
drift between PRs means the simulation changed, not just its speed).

Usage::

    PYTHONPATH=src python benchmarks/record_serving_baseline.py
    PYTHONPATH=src python benchmarks/record_serving_baseline.py --scale 0.5
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.parallel import resolve_jobs

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_suite.json"

ALGOS = "chunk-v,bpart,hash"


def run_serve(
    cache_dir: Path, out: Path, args: argparse.Namespace, *, replication: int = 1
) -> float:
    """Wall seconds for one ``repro-bench serve`` run in a fresh process."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--dataset",
        args.dataset,
        "--scale",
        str(args.scale),
        "--seed",
        str(args.seed),
        "--duration",
        str(args.duration),
        "--algos",
        ALGOS,
        "--replication",
        str(replication),
        "--out",
        str(out),
    ]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="livejournal")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--duration", type=float, default=1.0)
    args = parser.parse_args()

    cache_dir = Path(tempfile.mkdtemp(prefix="repro-serving-baseline-"))
    out_cold = cache_dir / "cold.json"
    out_warm = cache_dir / "warm.json"
    out_k2 = cache_dir / "k2.json"
    try:
        cold = run_serve(cache_dir, out_cold, args)
        print(f"cold serve: {cold:6.1f}s")
        warm = run_serve(cache_dir, out_warm, args)
        print(f"warm serve: {warm:6.1f}s  ({cold / warm:.1f}x speedup)")
        cold_bytes = out_cold.read_bytes()
        if cold_bytes != out_warm.read_bytes():
            raise SystemExit("cold and warm serving reports differ — not recording")
        report = json.loads(cold_bytes)
        # Replicated serving on clean traffic: the overhead/availability
        # cell of the same event loop at K=2 (no chaos).
        k2_seconds = run_serve(cache_dir, out_k2, args, replication=2)
        print(f"K=2 serve:  {k2_seconds:6.1f}s")
        report_k2 = json.loads(out_k2.read_bytes())
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    bpart = report["entries"]["bpart"]
    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": "repro-bench serve",
        "dataset": args.dataset,
        "scale": args.scale,
        "seed": args.seed,
        "duration": args.duration,
        "algos": ALGOS,
        "cold_seconds": round(cold, 2),
        "warm_seconds": round(warm, 2),
        "queries": bpart["queries"],
        "sim_throughput_qps": round(bpart["throughput"], 1),
        "bpart_p50_ms": round(bpart["latency_p50"] * 1e3, 4),
        "bpart_p99_ms": round(bpart["latency_p99"] * 1e3, 4),
        "shed_rate": bpart["shed_rate"],
        "cache_hit_rate": round(bpart["cache_hit_rate"], 4),
        "report_digest": report["workload_digest"][:16],
        "machine": platform.machine(),
        "cpus_visible": resolve_jobs(0),  # jobs <= 0 means all visible cores
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    bpart_k2 = report_k2["entries"]["bpart"]
    entry.update(
        {
            "k2_seconds": round(k2_seconds, 2),
            # A K=1 report carries availability only with its replication
            # block (hedging or replica-site chaos); without it the
            # closest proxy is 1-shed.
            "k1_availability": round(
                bpart.get("availability", 1.0 - bpart["shed_rate"]), 6
            ),
            "k2_availability": round(bpart_k2["availability"], 6),
            "k2_p99_ms": round(bpart_k2["latency_p99"] * 1e3, 4),
        }
    )
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
