"""Record cold-vs-warm ``repro-bench all`` wall time to BENCH_suite.json.

Runs the full experiment suite twice in fresh subprocesses against a
private artifact-cache directory: once with the cache empty (cold) and
once with it warm. The pair of wall times — and their ratio — is the
perf trajectory for the artifact-cache layer: each PR that touches the
cache or the experiments re-runs this script so regressions show up as
a new entry in ``BENCH_suite.json``, not a silent drift.

Usage::

    PYTHONPATH=src python benchmarks/record_suite_baseline.py
    PYTHONPATH=src python benchmarks/record_suite_baseline.py --scale 0.5 --jobs 4
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

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_suite.json"


def run_suite(cache_dir: Path, scale: float, seed: int, jobs: int) -> float:
    """Wall seconds for one ``repro-bench all`` run in a fresh process."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [
        sys.executable,
        "-m",
        "repro.cli",
        "bench",
        "all",
        "--scale",
        str(scale),
        "--seed",
        str(seed),
    ]
    if jobs > 1:
        cmd += ["--jobs", str(jobs)]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for both runs"
    )
    args = parser.parse_args()

    cache_dir = Path(tempfile.mkdtemp(prefix="repro-suite-baseline-"))
    try:
        cold = run_suite(cache_dir, args.scale, args.seed, args.jobs)
        print(f"cold suite: {cold:7.1f}s")
        warm = run_suite(cache_dir, args.scale, args.seed, args.jobs)
        print(f"warm suite: {warm:7.1f}s  ({cold / warm:.1f}x speedup)")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": "repro-bench all",
        "scale": args.scale,
        "seed": args.seed,
        "jobs": args.jobs,
        "cold_seconds": round(cold, 2),
        "warm_seconds": round(warm, 2),
        "warm_speedup": round(cold / warm, 2),
        "machine": platform.machine(),
        "cpus_visible": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
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
