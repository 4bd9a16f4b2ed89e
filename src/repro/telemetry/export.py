"""Telemetry export formats: canonical JSON, Prometheus text, chrome trace.

Three consumers, three renderings of one :class:`MetricsRegistry`:

- :func:`to_json` — canonical JSON (sorted keys, compact separators).
  The deterministic subset serialises to identical bytes for identical
  jobs, so it can sit next to cached artifacts without breaking their
  byte-stability; wall-clock material is opt-in and clearly fenced
  under ``"nondeterministic"``.
- :func:`to_prometheus` — the Prometheus text exposition format
  (``# TYPE`` headers, ``_total``/``_bucket``/``_sum``/``_count``
  conventions) so a scraper or ``promtool`` can consume a run's
  metrics directly.
- :func:`spans_to_chrome_events` — span intervals as chrome-tracing
  "X" events on a dedicated telemetry track, mergeable with the BSP
  schedule exported by :mod:`repro.cluster.trace`.
"""

from __future__ import annotations

import re

from repro.telemetry.registry import MetricsRegistry
from repro.utils import canon

__all__ = [
    "to_json",
    "to_prometheus",
    "spans_to_chrome_events",
    "render_table",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def to_json(registry: MetricsRegistry, *, include_nondeterministic: bool = False) -> str:
    """Canonical JSON form (sorted keys, no whitespace)."""
    return canon.dumps(registry.snapshot(include_nondeterministic=include_nondeterministic))


def _prom_name(name: str) -> str:
    return "repro_" + _NAME_RE.sub("_", name)


def _prom_labels(labels, extra: str = "") -> str:
    parts = [
        f'{_LABEL_RE.sub("_", str(k))}="{_escape(v)}"' for k, v in labels
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _prom_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition format (v0.0.4).

    Counters gain the conventional ``_total`` suffix, timers render as
    summaries in ``_seconds`` units, histograms expose cumulative
    ``_bucket{le=...}`` series plus ``_sum``/``_count``.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def header(pname: str, ptype: str) -> None:
        if pname not in typed:
            typed.add(pname)
            lines.append(f"# TYPE {pname} {ptype}")

    for m in registry.metrics():
        if m.kind == "counter":
            pname = _prom_name(m.name) + "_total"
            header(pname, "counter")
            lines.append(f"{pname}{_prom_labels(m.labels)} {_prom_value(m.value)}")
        elif m.kind == "gauge":
            pname = _prom_name(m.name)
            header(pname, "gauge")
            lines.append(f"{pname}{_prom_labels(m.labels)} {_prom_value(m.value)}")
        elif m.kind in ("histogram", "bounded_histogram"):
            pname = _prom_name(m.name)
            header(pname, "histogram")
            cumulative = 0
            for bound, count in zip(m.buckets, m.bucket_counts):
                cumulative += count
                le = 'le="' + repr(bound) + '"'
                lines.append(f"{pname}_bucket{_prom_labels(m.labels, le)} {cumulative}")
            inf_le = 'le="+Inf"'
            lines.append(f"{pname}_bucket{_prom_labels(m.labels, inf_le)} {m.count}")
            lines.append(f"{pname}_sum{_prom_labels(m.labels)} {repr(float(m.sum))}")
            lines.append(f"{pname}_count{_prom_labels(m.labels)} {m.count}")
        else:  # timer → summary in seconds
            pname = _prom_name(m.name)
            if not pname.endswith("_seconds"):
                pname += "_seconds"
            header(pname, "summary")
            lines.append(f"{pname}_sum{_prom_labels(m.labels)} {repr(float(m.seconds))}")
            lines.append(f"{pname}_count{_prom_labels(m.labels)} {m.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def spans_to_chrome_events(registry: MetricsRegistry) -> list[dict]:
    """Render recorded spans as chrome-tracing complete ("X") events.

    Spans live on their own process track (``pid=1``, named
    ``telemetry``) so merging them with a BSP schedule (machine tracks
    on ``pid=0``) keeps the two timelines visually separate.
    """
    if not registry.spans:
        return []
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "telemetry"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "spans"}},
    ]
    for span in registry.spans:
        events.append(
            {
                "name": span["name"],
                "cat": "span",
                "ph": "X",
                "pid": 1,
                "tid": 0,
                "ts": span["ts"] * 1e6,
                "dur": span["dur"] * 1e6,
                "args": dict(span["args"]),
            }
        )
    return events


def render_table(registry: MetricsRegistry) -> str:
    """Human-readable listing for the ``repro-bench metrics`` CLI."""
    rows: list[str] = []
    for m in registry.metrics():
        if m.kind == "counter":
            rows.append(f"counter    {m.key:56s} {_prom_value(m.value)}")
        elif m.kind == "gauge":
            rows.append(f"gauge      {m.key:56s} {m.value:.6g}")
        elif m.kind in ("histogram", "bounded_histogram"):
            rows.append(
                f"histogram  {m.key:56s} count={m.count} sum={m.sum:.6g}"
                + (f" min={m.min:.3g} max={m.max:.3g}" if m.count else "")
            )
        else:
            rows.append(
                f"timer      {m.key:56s} count={m.count} seconds={m.seconds:.6f}"
            )
    if registry.spans:
        rows.append(f"spans      {len(registry.spans)} recorded")
    return "\n".join(rows) if rows else "(no metrics recorded)"
