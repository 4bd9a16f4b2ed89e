"""End-to-end + per-layer benchmark: six workloads from partitioning to
replicated serving. See README.md in this directory.

    python benchmarks/e2e/run.py [--seed 1] [--reps 5] [--workload NAME] [--smoke] [--out PATH]

runs the suite, prints every metric by name with its unit, verifies
outputs, and writes one result document plus ``trace_<workload>.json``
per workload. The driver form named in ``BENCHMARK.json``,

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints one JSON object as its last line: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.

Each workload runs in a fresh child process (so memory and import
state are per workload), one busy process at a time, single-threaded
numeric libraries, fixed malloc thresholds, ``REPRO_*`` variables
scrubbed, and every temporary directory under ``benchmarks/e2e/_work``
inside the checkout.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# glibc malloc, fixed instead of adaptive: blocks below 32 MiB come from the heap
# and the heap is never trimmed, so peak_rss_mb is the heap's high-water mark
# (peak live memory plus what fragmentation strands) and seconds are those of the
# default allocator. Left to adapt, the thresholds follow the sizes of earlier
# frees and the same commit peaked at 194 or 234 MB (partition_dense), 105, 109 or
# 112 MB (serve_light_k1) from one run to the next. Handing every block of 128 KiB
# back on free is steady too, but costs analytics_bsp 30 % in page faults.
MALLOC_PINS = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}
CHILD_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run only this workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="timed seconds per workload "
                   "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--reps", type=int, help="exactly this many timed reps, each on its own "
                   "seed-derived input, instead of filling --seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), help="driver form: 0 prints the "
                   "end-to-end metrics as one JSON line, 1 the per-layer metrics")
    p.add_argument("--smoke", action="store_true", help="graphs / 8, one rep")
    p.add_argument("--out", type=Path, default=HERE / "out" / "result.json",
                   help="result document; traces are written beside it")
    p.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# child: one workload, in process
# ----------------------------------------------------------------------
def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    from harness import run_workload
    from workloads import REGISTRY

    import_s = time.perf_counter() - _START
    workdir = args.child.parent
    workload = REGISTRY[args.workload](smoke=args.smoke, workdir=workdir)
    # the driver's traced run measures layers, which happens on input 0 alone
    reps = 1 if args.trace == 1 else args.reps
    doc = run_workload(workload, args.seed, seconds=args.seconds, reps=reps,
                       trace=args.trace != 0, import_s=import_s)
    doc["why"] = workload.why
    doc["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                       "scipy": scipy.__version__}
    args.child.write_text(json.dumps(doc))
    return 0


# ----------------------------------------------------------------------
# parent: environment, child processes, printing
# ----------------------------------------------------------------------
def child_env(workdir: Path) -> tuple[dict, list[str]]:
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(THREAD_PINS)
    env.update(MALLOC_PINS)
    env.update({
        "REPRO_NO_CACHE": "1",  # we measure compute, not artifact replay
        "REPRO_CACHE_DIR": str(workdir / "cache"),
        "REPRO_SPILL_DIR": str(workdir / "spill"),
        "TMPDIR": str(workdir),
        "PYTHONHASHSEED": "0",
    })
    return env, scrubbed


def run_child(args, name: str, workdir: Path, env: dict) -> dict:
    out = workdir / f"{name}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--child", str(out), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.reps:
        cmd += ["--reps", str(args.reps)]
    if args.trace is not None:
        cmd += ["--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    # own session: a timeout must also reach the workers of the jobs=2 cell
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0 or not out.is_file():
        raise SystemExit(f"workload {name}: child exited with code {code}")
    return json.loads(out.read_text())


def git(*argv: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def print_workload(doc: dict, catalogue: dict) -> None:
    print(f"\n== {doc['workload']}  seed {doc['seed']}  timed reps {doc['reps']} "
          f"(one per seed-derived input)  items of input 0: {doc['items']}")
    print(f"   {doc['why']}")
    for name, m in doc["metrics"].items():
        extra = ""
        if m.get("n", 1) > 1:
            extra = f"   n={m['n']} min={m['min']:.6g} max={m['max']:.6g}"
        gate = catalogue[name].bound
        kind = "" if gate is None else f"   [{catalogue[name].better} is better, bound {gate:g}]"
        print(f"   {name:42s} {m['value']:>16.6g} {m['unit']:6s}{extra}{kind}")
    c = doc["checks"]
    print(f"   checks: {c['attempted']} attempted, {c['failed']} failed"
          + "".join(f"\n     FAILED: {f}" for f in c["failures"]))
    if "trace" in doc:
        print(f"   self time of the traced body ({doc['trace']['body_s']:.3f} s), by share:")
        for name, sec, share in doc["trace"]["self_table"]:
            print(f"     {name:40s} {sec:9.4f} s {share * 100:6.1f} %")
    if doc["workload"].startswith("serve"):
        print("   open loop in virtual time: arrivals follow the Poisson schedule whatever the "
              "cluster does; generator lateness is 0 by construction")


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not bench_file.is_file():
        print(f"error: {ROOT} holds no src/repro to measure", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    sys.path.insert(0, str(HERE))
    from catalogue import CATALOGUE, WORKLOADS

    bench = json.loads(bench_file.read_text())
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.smoke:
        args.reps = 1
    driver = args.trace is not None
    if args.workload not in (None, *WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    if driver and args.workload is None:
        print("error: --trace needs --workload", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)

    begin = time.perf_counter()
    status_before = git("status", "--porcelain")
    workdir = HERE / "_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    env, scrubbed = child_env(workdir)
    docs = []
    try:
        for name in names:
            doc = run_child(args, name, workdir, env)
            events = doc.get("trace", {}).pop("events", None)
            if events is not None:
                from spans import write_chrome_trace

                write_chrome_trace(args.out.parent / f"trace_{name}.json", events,
                                   {"workload": name, "seed": args.seed})
            if not driver:
                print_workload(doc, CATALOGUE)
            docs.append(doc)
    finally:  # temp shard / cache dirs go even when a child or a check fails
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    if git("status", "--porcelain") != status_before:
        print("error: the run changed `git status --porcelain`", file=sys.stderr)
        return 1
    failed = sum(d["checks"]["failed"] for d in docs)

    if driver:
        doc = docs[0]
        wanted = bench["per_layer" if args.trace else "end_to_end"]
        # the driver's line carries every listed name on every workload; a layer
        # that does no work on this one reads 0 (the result document omits it)
        metrics = {m["name"]: {"value": doc["metrics"].get(m["name"], {"value": 0})["value"],
                               "unit": m["unit"]} for m in wanted}
        print(json.dumps({"correct": failed == 0, "attempted": doc["checks"]["attempted"],
                          "failed": failed, "metrics": metrics}))
        return 0

    result = {
        "schema": "e2e-bench/v1",
        "git_sha": git("rev-parse", "HEAD"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "versions": docs[0]["versions"],
        "thread_pins": THREAD_PINS,
        "malloc_pins": MALLOC_PINS,
        "scrubbed_env": scrubbed,
        "seed": args.seed,
        "reps": args.reps,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "suite_seconds": time.perf_counter() - begin,
        "workloads": {d["workload"]: d for d in docs},
    }
    for d in docs:
        del d["versions"]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1))
    print(f"\n{len(docs)} workload(s) in {result['suite_seconds']:.1f} s; "
          f"checks failed: {failed}; result document: {args.out}")
    if scrubbed:
        print(f"scrubbed from the environment: {', '.join(scrubbed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
