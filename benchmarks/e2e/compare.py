"""Compare two result documents of ``run.py``: A (parent) and B (change).

    python benchmarks/e2e/compare.py A.json B.json

One row per (workload, gated metric), each workload on its own rows:

- ``regressed``   B's median is worse than A's by more than the bound
- ``improved``    better by more than the bound (host), or at all (exact)
- ``unchanged``   within the bound
- ``unresolved``  the reps disagree by more than the bound, so "within
                  the bound" proves nothing — unless every rep of B
                  reads better than the same rep of A

Exact metrics (bound 0) compare at relative tolerance 1e-9. Ungated
exact counts and output digests that differ are listed as ``changed``:
a change that claims only speed must leave every one of them alone.
Both documents must come from the same ``--seed`` and ``--reps``: the
timed reps are then paired input by input. Exits 1 on any regression
(a rise of ``fail_share`` is one).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from catalogue import CATALOGUE, EXACT_RTOL


def verdict(metric, a: dict, b: dict) -> tuple[float, str]:
    """``(relative worsening of B against A, status)``; positive = worse.

    Host metrics with per-input samples are compared input by input
    (both runs built the same inputs from the same seed): the worsening
    is the median of the paired changes, and the distance between their
    quartiles (their range, below four pairs) is the run-to-run spread.
    That takes the input-to-input variation of the
    work, which is far larger than any bound, out of the comparison.
    """
    sign = 1.0 if metric.better == "lower" else -1.0
    va, vb = a["value"], b["value"]
    if metric.kind == "exact":
        worse = sign * (vb - va) / abs(va) if va else sign * (vb - va)
        if abs(vb - va) <= EXACT_RTOL * max(abs(va), abs(vb)):
            return worse, "unchanged"
        return worse, ("regressed" if worse > 0 else "improved")
    pairs = list(zip(a.get("samples", [va]), b.get("samples", [vb])))
    changes = [sign * (y - x) / x for x, y in pairs]
    worse = statistics.median(changes)
    if worse > metric.bound:
        return worse, "regressed"
    if len(changes) >= 4:
        q1, _, q3 = statistics.quantiles(changes, n=4)
        spread = q3 - q1
    else:
        spread = max(changes) - min(changes)
    if spread > metric.bound:
        # wider than the bound: "within the bound" proves nothing, unless
        # every rep of B reads better than the same rep of A
        return worse, ("improved" if max(changes) < 0 else "unresolved")
    return worse, ("improved" if worse < -metric.bound else "unchanged")


def compare(doc_a: dict, doc_b: dict) -> tuple[list[tuple], list[str]]:
    """Rows ``(workload, metric, a, b, worsening, status)`` and notes."""
    notes = [f"{key}: A={doc_a.get(key)!r} B={doc_b.get(key)!r}"
             for key in ("seed", "reps", "smoke")
             if doc_a.get(key) != doc_b.get(key)]
    rows = []
    for name, wa in doc_a["workloads"].items():
        wb = doc_b["workloads"].get(name)
        if wb is None:
            notes.append(f"{name}: missing from B")
            continue
        for metric_name, a in wa["metrics"].items():
            metric, b = CATALOGUE[metric_name], wb["metrics"].get(metric_name)
            if b is None:
                notes.append(f"{name}: {metric_name} missing from B")
            elif metric.bound is not None:
                rows.append((name, metric_name, a["value"], b["value"], *verdict(metric, a, b)))
            elif metric.kind == "exact" and a["value"] != b["value"]:
                rows.append((name, metric_name, a["value"], b["value"], 0.0, "changed"))
        for key, digest in wa["info"].items():
            if wb["info"].get(key) != digest:
                rows.append((name, f"digest:{key}", digest[:12], str(wb["info"].get(key))[:12],
                             0.0, "changed"))
    return rows, notes


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in argv)
    rows, notes = compare(doc_a, doc_b)
    print(f"{'workload':18s} {'metric':24s} {'A':>14s} {'B':>14s} {'worse by':>9s}  status")
    for workload, metric, a, b, worse, status in rows:
        fmt = (lambda v: f"{v:14.6g}") if isinstance(a, (int, float)) else (lambda v: f"{v:>14s}")
        print(f"{workload:18s} {metric:24s} {fmt(a)} {fmt(b)} {worse * 100:8.2f}%  {status}")
    for note in notes:
        print(f"note: {note}")
    counts = {s: sum(1 for r in rows if r[5] == s)
              for s in ("regressed", "improved", "unchanged", "unresolved", "changed")}
    print("  ".join(f"{k} {v}" for k, v in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
