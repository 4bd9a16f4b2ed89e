"""Process-wide metrics registry: counters, gauges, histograms, timers.

One accounting system for the whole pipeline: partitioners (the
``partition`` span and its ``partition.phase``/``partition.combine.*``
children), the artifact store's :class:`~repro.bench.artifacts.CacheStats`
counters and the BSP :class:`~repro.cluster.ledger.TimingLedger` all
*emit into* this registry (guarded by the module flag in
:mod:`repro.telemetry`, so the default is a strict no-op) and the
registry exports everything at once. No region is timed twice: a
wall-clock breakdown is a span here or it does not exist, and the one
timer, ``bench.experiment_seconds``, times an experiment no span covers.

Metric taxonomy and the determinism contract:

- :class:`Counter` — monotonically non-decreasing totals (vertices
  streamed, cache hits, walker hops, crash events). **Deterministic**:
  the same job always produces the same values.
- :class:`Gauge` — last-write-wins level readings (per-layer combine
  bias, saturated part count). **Deterministic**.
- :class:`Histogram` — fixed-bucket distributions of *simulated* or
  structural quantities (barrier wait seconds, active-arc fractions).
  **Deterministic** — never feed wall-clock durations into one.
- :class:`TimerMetric` — accumulated **wall-clock** seconds. Explicitly
  non-deterministic; the canonical export segregates timers (and spans)
  under a ``"nondeterministic"`` key so byte-stable artifact pipelines
  can keep hashing the deterministic remainder.

Spans (:meth:`MetricsRegistry.span`) are lightweight wall-clock trace
intervals that export into the existing chrome-trace pipeline
(:mod:`repro.cluster.trace`).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "BoundedHistogram",
    "TimerMetric",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_BUCKETS",
    "log_buckets",
    "metric_key",
]

#: format tag embedded in every snapshot; bump on layout changes.
TELEMETRY_FORMAT = "telemetry/v1"

#: default histogram upper bounds (seconds-flavoured; +inf is implicit).
DEFAULT_BUCKETS = (
    0.0001,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)


def log_buckets(lo: float, hi: float, per_decade: int = 4) -> tuple[float, ...]:
    """Fixed log-spaced bucket upper bounds covering ``[lo, hi]``.

    ``per_decade`` buckets per factor of 10, rounded to 6 significant
    digits so the bounds (and therefore every JSON export keyed on
    them) are reproducible across platforms. The result always starts
    at ``lo`` and ends at a bound ``>= hi``; +inf overflow stays
    implicit as in :class:`Histogram`.
    """
    if not (0.0 < lo < hi):
        raise ConfigurationError(
            f"log_buckets needs 0 < lo < hi, got lo={lo}, hi={hi}"
        )
    if per_decade < 1:
        raise ConfigurationError(f"per_decade must be >= 1, got {per_decade}")
    ratio = 10.0 ** (1.0 / per_decade)
    bounds: list[float] = []
    edge = float(lo)
    while True:
        bounds.append(float(f"{edge:.6g}"))
        if bounds[-1] >= hi:
            break
        edge *= ratio
    return tuple(bounds)


def metric_key(name: str, labels: tuple[tuple[str, object], ...]) -> str:
    """Canonical ``name{label="value",...}`` identity of one series."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class _Metric:
    """Shared identity plumbing for all metric kinds."""

    __slots__ = ("name", "labels")
    kind = "metric"

    def __init__(self, name: str, labels: tuple[tuple[str, object], ...]) -> None:
        self.name = name
        self.labels = labels

    @property
    def key(self) -> str:
        return metric_key(self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.key} = {self.as_dict()!r})"


class Counter(_Metric):
    """Monotonically non-decreasing total (int or float increments)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, name: str, labels: tuple) -> None:
        super().__init__(name, labels)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.key} cannot decrease (inc({amount}))"
            )
        self.value += amount

    def as_dict(self):
        return self.value


class Gauge(_Metric):
    """Last-write-wins level reading."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self, name: str, labels: tuple) -> None:
        super().__init__(name, labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def as_dict(self):
        return self.value


class Histogram(_Metric):
    """Fixed-bucket distribution with count/sum/min/max.

    Bucket bounds are upper edges (``le`` semantics, +inf implicit) and
    are fixed at series creation — later ``histogram()`` lookups ignore
    a differing ``buckets=`` argument, keeping the series well-defined.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, name: str, labels: tuple, buckets=DEFAULT_BUCKETS) -> None:
        super().__init__(name, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ConfigurationError(f"histogram {name} needs at least one bucket")
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +inf overflow
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def as_dict(self) -> dict:
        out = {
            "count": self.count,
            "sum": self.sum,
            "buckets": {repr(b): c for b, c in zip(self.buckets, self.bucket_counts)},
            "overflow": self.bucket_counts[-1],
        }
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
        return out


class BoundedHistogram(Histogram):
    """Histogram over a *bounded*, log-spaced domain with quantile reads.

    The serving layer records latency distributions, and a latency
    distribution needs what the plain :class:`Histogram` does not give:

    - **log-spaced buckets** — tail quantiles (p99) of heavy-tailed
      latencies need resolution across decades, not linear steps;
    - **bounded memory** — the bucket list is fixed at creation from
      ``(lo, hi, per_decade)``, so recording a million observations
      costs the same as recording ten;
    - **deterministic quantiles** — :meth:`quantile` reads the bucket
      edges, a pure function of the counts, so two identical runs
      export identical values.

    Observations below ``lo`` land in the first bucket, above ``hi`` in
    the +inf overflow; ``count``/``sum``/``min``/``max`` stay exact.
    """

    __slots__ = ("lo", "hi", "per_decade")
    kind = "bounded_histogram"

    def __init__(
        self,
        name: str,
        labels: tuple,
        *,
        lo: float = 1e-5,
        hi: float = 60.0,
        per_decade: int = 4,
    ) -> None:
        super().__init__(name, labels, buckets=log_buckets(lo, hi, per_decade))
        self.lo = float(lo)
        self.hi = float(hi)
        self.per_decade = int(per_decade)

    def quantile(self, q: float) -> float:
        """Upper bucket edge containing the ``q``-quantile (0 < q <= 1).

        Returns 0.0 while empty. Observations in the overflow bucket
        report the exact maximum seen — the tail must never be clipped
        to ``hi`` silently.
        """
        if not (0.0 < q <= 1.0):
            raise ConfigurationError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            cumulative += n
            if cumulative >= rank:
                return bound
        return self.max

    def as_dict(self) -> dict:
        out = super().as_dict()
        out["lo"] = self.lo
        out["hi"] = self.hi
        out["per_decade"] = self.per_decade
        return out


class TimerMetric(_Metric):
    """Accumulated wall-clock seconds (count + total).

    The only metric kind allowed to hold wall-clock values; exported
    under the ``"nondeterministic"`` key of the canonical snapshot.
    """

    __slots__ = ("count", "seconds")
    kind = "timer"

    def __init__(self, name: str, labels: tuple) -> None:
        super().__init__(name, labels)
        self.count = 0
        self.seconds = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.seconds += float(seconds)

    def time(self) -> "_TimerContext":
        """Context manager adding the block's elapsed wall time."""
        return _TimerContext(self)

    def as_dict(self) -> dict:
        return {"count": self.count, "seconds": self.seconds}


class _TimerContext:
    __slots__ = ("_timer", "_start")

    def __init__(self, timer: TimerMetric) -> None:
        self._timer = timer
        self._start = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._timer.add(time.perf_counter() - self._start)


class _SpanContext:
    __slots__ = ("_registry", "_name", "_args", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str, args: dict) -> None:
        self._registry = registry
        self._name = name
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_SpanContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self._registry.add_span(
            self._name, self._start, end - self._start, **self._args
        )


_KINDS = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
    "bounded_histogram": BoundedHistogram,
    "timer": TimerMetric,
}


class MetricsRegistry:
    """Get-or-create registry of labelled metric series plus spans.

    A series is identified by ``(name, sorted labels)``; requesting the
    same identity always returns the same object, and requesting it as a
    different kind raises :class:`~repro.errors.ConfigurationError`.
    Creation is lock-protected; updates on the returned objects are
    plain attribute arithmetic (safe under CPython for the counting
    workloads here, and never on a per-vertex hot path).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    # -- creation ------------------------------------------------------
    def _series(self, cls, name: str, labels: dict, **ctor_kwargs):
        key = (name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls(name, key[1], **ctor_kwargs)
                    self._metrics[key] = metric
        if type(metric) is not cls:
            raise ConfigurationError(
                f"metric {metric.key!r} already registered as {metric.kind}, "
                f"requested as {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._series(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._series(Gauge, name, labels)

    def histogram(self, name: str, *, buckets=None, **labels) -> Histogram:
        if buckets is None:
            return self._series(Histogram, name, labels)
        return self._series(Histogram, name, labels, buckets=buckets)

    def bounded_histogram(
        self,
        name: str,
        *,
        lo: float = 1e-5,
        hi: float = 60.0,
        per_decade: int = 4,
        **labels,
    ) -> BoundedHistogram:
        """Log-spaced bounded histogram (latency distributions).

        Like :meth:`histogram`, the bucket layout is fixed by the first
        creation of the series; later lookups with different bounds
        return the existing series unchanged.
        """
        return self._series(
            BoundedHistogram, name, labels, lo=lo, hi=hi, per_decade=per_decade
        )

    def timer(self, name: str, **labels) -> TimerMetric:
        return self._series(TimerMetric, name, labels)

    # -- spans ---------------------------------------------------------
    def span(self, name: str, **args) -> _SpanContext:
        """Context manager recording one wall-clock trace interval."""
        return _SpanContext(self, name, args)

    def add_span(self, name: str, start: float, duration: float, **args) -> None:
        """Record a span from explicit perf-counter readings."""
        self._spans.append(
            {
                "name": name,
                "ts": float(start) - self._epoch,
                "dur": float(duration),
                "args": args,
            }
        )

    @property
    def spans(self) -> list[dict]:
        """Recorded spans (shared list; ``ts`` is seconds since reset)."""
        return self._spans

    # -- introspection -------------------------------------------------
    def metrics(self) -> list:
        """All series, sorted by canonical key."""
        return sorted(self._metrics.values(), key=lambda m: m.key)

    def snapshot(self, *, include_nondeterministic: bool = False) -> dict:
        """Canonical dict form of the registry.

        Deterministic content (counters, gauges, histograms) lives at
        the top level; wall-clock material (timers, spans) appears only
        under ``"nondeterministic"`` and only when asked for — cached
        artifacts and byte-stability checks consume the default form.
        """
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        timers: dict[str, dict] = {}
        for m in self.metrics():
            if m.kind == "counter":
                counters[m.key] = m.as_dict()
            elif m.kind == "gauge":
                gauges[m.key] = m.as_dict()
            elif m.kind in ("histogram", "bounded_histogram"):
                histograms[m.key] = m.as_dict()
            else:
                timers[m.key] = m.as_dict()
        out = {
            "format": TELEMETRY_FORMAT,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
        if include_nondeterministic:
            out["nondeterministic"] = {
                "timers": timers,
                "spans": [dict(s) for s in self._spans],
            }
        return out

    def reset(self) -> None:
        """Drop every series and span; restart the span epoch."""
        self._metrics: dict[tuple, _Metric] = {}
        self._spans: list[dict] = []
        self._epoch = time.perf_counter()


class _NullMetric:
    """Accepts every metric mutation and does nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def add(self, seconds: float) -> None:
        pass

    def time(self) -> "_NullContext":
        return _NULL_CONTEXT


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_METRIC = _NullMetric()
_NULL_CONTEXT = _NullContext()


class NullRegistry:
    """Disabled-mode stand-in: same surface, every operation a no-op.

    Returned by :func:`repro.telemetry.active` when telemetry is off,
    so instrumented code that does not bother with its own ``enabled()``
    guard still costs only a couple of attribute lookups.
    """

    def counter(self, name: str, **labels) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, **labels) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, *, buckets=None, **labels) -> _NullMetric:
        return _NULL_METRIC

    def bounded_histogram(
        self, name: str, *, lo: float = 1e-5, hi: float = 60.0, per_decade: int = 4, **labels
    ) -> _NullMetric:
        return _NULL_METRIC

    def timer(self, name: str, **labels) -> _NullMetric:
        return _NULL_METRIC

    def span(self, name: str, **args) -> _NullContext:
        return _NULL_CONTEXT

    def add_span(self, name: str, start: float, duration: float, **args) -> None:
        pass

    @property
    def spans(self) -> list[dict]:
        return []

    def metrics(self) -> list:
        return []

    def snapshot(self, *, include_nondeterministic: bool = False) -> dict:
        out = {
            "format": TELEMETRY_FORMAT,
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        if include_nondeterministic:
            out["nondeterministic"] = {"timers": {}, "spans": []}
        return out

    def reset(self) -> None:
        pass
