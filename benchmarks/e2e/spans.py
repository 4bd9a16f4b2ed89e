"""Benchmark-side spans: name, start, end, parent; kept in memory.

The benchmark times each layer from outside, around the calls into its
public functions (spans inside ``src/repro`` are a later issue). A
:class:`Tracer` that is off hands out one shared no-op context, so the
untraced reps — the only source of end-to-end numbers — pay a single
attribute read per layer boundary.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

_OFF = nullcontext()


class Tracer:
    """Span recorder for one process; ``on=False`` records nothing."""

    def __init__(self, on: bool) -> None:
        self.on = bool(on)
        self.spans: list[dict] = []  # {name, start, end, parent}
        self._stack: list[int] = []

    def span(self, name: str):
        """Context manager timing ``name`` under the innermost open span."""
        return self._record(name) if self.on else _OFF

    @contextmanager
    def _record(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        row = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent}
        self.spans.append(row)
        self._stack.append(index)
        try:
            yield
        finally:
            row["end"] = time.perf_counter()
            self._stack.pop()

    # -- queries -------------------------------------------------------
    def seconds(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def self_table(self, root: str) -> list[tuple[str, float, float]]:
        """``(name, self seconds, share of root)`` rows for ``root`` and
        the spans under it, largest first. Self time is a span's
        duration minus what its child spans cover; the root's own self
        time is the ``(unattributed)`` row, so time inside the body
        that no named layer span covers is shown, not hidden."""
        inside = [s["name"] == root for s in self.spans]
        for i, s in enumerate(self.spans):  # parents precede children
            if s["parent"] >= 0 and inside[s["parent"]]:
                inside[i] = True
        selfs: dict[str, float] = {}
        for s, keep in zip(self.spans, inside):
            if not keep:
                continue
            dur = s["end"] - s["start"]
            selfs[s["name"]] = selfs.get(s["name"], 0.0) + dur
            if s["name"] != root:
                parent = self.spans[s["parent"]]["name"]
                selfs[parent] = selfs.get(parent, 0.0) - dur
        total = self.seconds(root)
        rows = sorted(
            (("(unattributed)" if name == root else name, sec) for name, sec in selfs.items()),
            key=lambda r: (-r[1], r[0]),
        )
        return [(name, sec, sec / total if total else 0.0) for name, sec in rows]

    # -- export --------------------------------------------------------
    def chrome_events(self, pid: int = 1) -> list[dict]:
        """Complete (``ph: X``) events, microseconds from the first span;
        loads in Perfetto / ``chrome://tracing``."""
        if not self.spans:
            return []
        origin = self.spans[0]["start"]
        return [
            {
                "name": s["name"],
                "cat": s["name"].split(".")[0],
                "ph": "X",
                "pid": pid,
                "tid": 1,
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"span": i, "parent": s["parent"]},
            }
            for i, s in enumerate(self.spans)
        ]


def write_chrome_trace(path: Path, events: list[dict], metadata: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}
    path.write_text(json.dumps(doc))
