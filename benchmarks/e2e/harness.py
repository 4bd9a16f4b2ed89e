"""Run one workload in this process: inputs, timed reps, checks, trace.

Protocol (README "Run protocol"). After one discarded warm-up rep on
input 0, the run builds one input after another from the seed (input
``i`` from ``seed + i * SUB_SEED_STRIDE``) and times one untraced body
rep on each, ``gc.collect()`` before it, until ``seconds`` have passed
and at least ``MIN_INPUTS`` inputs ran (or exactly ``reps`` inputs).
BPart's layer schedule, and so its work, changes with the graph sample;
a run therefore covers several samples and reports their mean, and
``compare.py`` pairs two runs input by input. End-to-end numbers come
from these untraced reps only.

With ``trace`` a second phase follows on input 0: a traced setup, two
more untraced reps (with the timed one, the reference for the overhead
numbers), one rep with ``repro.telemetry`` on, one traced rep, and the
layer probes.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time

from repro import telemetry

from catalogue import CATALOGUE
from spans import Tracer

_T = time.perf_counter
SUB_SEED_STRIDE = 1000
MIN_INPUTS = 3
REFERENCE_REPS = 2  # extra untraced reps of input 0 that anchor the overhead numbers


class Checks:
    """Output checks; each one is an attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def same_digest(self, what: str, out: dict, first: dict) -> None:
        self.check(f"{what} digest equals the first rep's", out["digest"] == first["digest"])


def _host(samples: list[float], value: float) -> dict:
    return {"value": value, "n": len(samples), "min": min(samples), "max": max(samples),
            "samples": samples}


def run_workload(workload, seed: int, *, seconds: float, reps: int | None, trace: bool,
                 import_s: float = 0.0) -> dict:
    """Measure ``workload`` and return its result document."""
    off = Tracer(False)
    checks = Checks()

    setup_s, wall_s, items = [], [], []
    st0 = first = warm = None
    begin = _T()
    while True:
        t = _T()
        st = workload.setup(seed + len(wall_s) * SUB_SEED_STRIDE, off)
        setup_s.append(_T() - t)
        if st0 is None:
            st0 = st
            warm = workload.body(st0, off)  # discarded: caches fill, lazy imports finish
            begin = _T()
        gc.collect()
        t = _T()
        out = workload.body(st, off)
        wall_s.append(_T() - t)
        items.append(workload.items(st, out))
        if first is None:
            first = out
        del st, out  # only input 0 stays alive: peak RSS must not grow with the input count
        n = len(wall_s)
        if n == reps if reps else (n >= MIN_INPUTS and _T() - begin >= seconds):
            break
    checks.same_digest("warm-up", warm, first)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rates = [it / t for it, t in zip(items, wall_s)]
    metrics = {
        "setup_s": _host(setup_s, statistics.median(setup_s)),
        "wall_s": _host(wall_s, statistics.fmean(wall_s)),
        "items_per_s": _host(rates, statistics.fmean(rates)),
        "peak_rss_mb": {"value": peak_rss_mb},
        "bench.import_s": {"value": import_s},
    }

    tr = Tracer(trace)
    if trace:
        with tr.span("setup"):
            st0 = workload.setup(seed, tr)
    exact, info = workload.finish(st0, first, checks)
    metrics.update({k: {"value": v} for k, v in exact.items()})

    doc = {"workload": workload.name, "seed": seed, "reps": len(wall_s),
           "items": items[0], "info": info}
    if trace:
        reference_s = [wall_s[0]]
        for _ in range(REFERENCE_REPS):
            gc.collect()
            t = _T()
            again = workload.body(st0, off)
            reference_s.append(_T() - t)
            checks.same_digest("repeated rep", again, first)
        reference = statistics.median(reference_s)
        telemetry.set_enabled(True)
        try:
            t = _T()
            telemetered = workload.body(st0, off)
            telemetry_s = _T() - t
        finally:
            telemetry.set_enabled(False)
            telemetry.reset()
        gc.collect()
        with tr.span("body"):
            traced = workload.body(st0, tr)
        checks.same_digest("telemetry-on rep", telemetered, first)
        checks.same_digest("traced rep", traced, first)
        with tr.span("probes"):
            layer = workload.layers(st0, traced, tr, checks, reference)
        table = tr.self_table("body")
        unattributed = next(share for name, _, share in table if name == "(unattributed)")
        layer["telemetry.on_overhead_pct"] = (telemetry_s / reference - 1.0) * 100.0
        layer["trace.overhead_pct"] = (tr.seconds("body") / reference - 1.0) * 100.0
        layer["trace.coverage"] = 1.0 - unattributed
        metrics.update({k: {"value": v} for k, v in layer.items()})
        doc["trace"] = {
            "body_s": tr.seconds("body"),
            "self_table": [list(row) for row in table],
            "events": tr.chrome_events(),
        }

    metrics["fail_share"] = {"value": len(checks.failures) / checks.attempted}
    for name, row in metrics.items():
        row["unit"] = CATALOGUE[name].unit
    doc["metrics"] = metrics
    doc["checks"] = {"attempted": checks.attempted, "failed": len(checks.failures),
                     "failures": checks.failures}
    return doc
