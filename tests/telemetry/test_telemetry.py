"""Unit suite for the telemetry subsystem.

Registry semantics, disabled-mode no-op behaviour, and the JSON /
Prometheus / chrome-trace export round-trips — plus the disabled-mode
parity guarantee the artifact cache depends on.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ConfigurationError
from repro.telemetry import (
    MetricsRegistry,
    NullRegistry,
    metric_key,
    render_table,
    spans_to_chrome_events,
    to_json,
    to_prometheus,
)


@pytest.fixture
def reg():
    return MetricsRegistry()


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistrySemantics:
    def test_counter_accumulates(self, reg):
        c = reg.counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self, reg):
        with pytest.raises(ConfigurationError):
            reg.counter("x").inc(-1)

    def test_gauge_set_inc(self, reg):
        g = reg.gauge("g")
        g.set(10)
        g.inc(-3)
        assert g.value == 7

    def test_same_identity_same_object(self, reg):
        assert reg.counter("x", a="1") is reg.counter("x", a="1")

    def test_label_order_irrelevant(self, reg):
        assert reg.counter("x", a="1", b="2") is reg.counter("x", b="2", a="1")

    def test_distinct_labels_distinct_series(self, reg):
        reg.counter("x", a="1").inc()
        reg.counter("x", a="2").inc(3)
        assert reg.counter("x", a="1").value == 1
        assert reg.counter("x", a="2").value == 3

    def test_kind_conflict_raises(self, reg):
        reg.counter("x")
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.gauge("x")

    def test_metric_key_format(self):
        assert metric_key("n", ()) == "n"
        assert metric_key("n", (("a", 1), ("b", "z"))) == 'n{a="1",b="z"}'

    def test_histogram_buckets(self, reg):
        h = reg.histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(55.5)
        assert h.bucket_counts == [1, 1, 1]  # <=1, <=10, overflow
        assert h.min == 0.5 and h.max == 50.0

    def test_histogram_bucket_edge_is_le(self, reg):
        h = reg.histogram("h", buckets=(1.0, 10.0))
        h.observe(1.0)
        assert h.bucket_counts[0] == 1  # le semantics: 1.0 lands in le=1.0

    def test_histogram_needs_buckets(self, reg):
        with pytest.raises(ConfigurationError):
            reg.histogram("h", buckets=())

    def test_timer_accumulates(self, reg):
        t = reg.timer("t")
        t.add(0.5)
        with t.time():
            pass
        assert t.count == 2
        assert t.seconds >= 0.5

    def test_span_context(self, reg):
        with reg.span("work", item=3):
            pass
        assert len(reg.spans) == 1
        span = reg.spans[0]
        assert span["name"] == "work"
        assert span["args"] == {"item": 3}
        assert span["dur"] >= 0

    def test_reset_clears_everything(self, reg):
        reg.counter("x").inc()
        with reg.span("s"):
            pass
        reg.reset()
        assert reg.metrics() == []
        assert reg.spans == []


# ----------------------------------------------------------------------
# Module flag and null registry
# ----------------------------------------------------------------------
class TestDisabledMode:
    def test_disabled_by_default_in_tests(self):
        assert not telemetry.enabled()
        assert isinstance(telemetry.active(), NullRegistry)

    def test_enable_switches_active(self):
        telemetry.set_enabled(True)
        assert telemetry.active() is telemetry.registry()
        telemetry.set_enabled(False)
        assert isinstance(telemetry.active(), NullRegistry)

    def test_null_registry_is_total_noop(self):
        null = NullRegistry()
        null.counter("x", a="b").inc(5)
        null.gauge("g").set(1)
        null.histogram("h", buckets=(1,)).observe(2)
        null.timer("t").add(1)
        with null.timer("t").time():
            pass
        with null.span("s", k=1):
            pass
        null.add_span("s", 0.0, 1.0)
        assert null.metrics() == []
        assert null.spans == []
        snap = null.snapshot(include_nondeterministic=True)
        assert snap["counters"] == {}
        assert snap["nondeterministic"] == {"timers": {}, "spans": []}

    def test_instrumented_code_records_nothing_when_disabled(self, tmp_path):
        from repro.cluster.ledger import TimingLedger
        from repro.graph import social_graph, spill_csr
        from repro.graph.csr import gather_rows

        ledger = TimingLedger(2)
        ledger.record(np.array([1.0, 2.0]), np.array([0.1, 0.2]))
        ledger.add_event("crash", machine=1)
        # the sharded graph paths (spill_writes / bytes_mapped /
        # block_reads) must be equally silent
        sharded = spill_csr(
            social_graph(200, 4.0, 2.3, rng=1), tmp_path / "s", shard_size=64
        )
        for _ in sharded.iter_blocks():
            pass
        gather_rows(sharded, np.arange(50))
        assert telemetry.registry().metrics() == []


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
class TestJsonExport:
    def test_canonical_and_parseable(self, reg):
        reg.counter("a.b", k="1").inc(2)
        reg.gauge("g").set(0.5)
        text = to_json(reg)
        payload = json.loads(text)
        assert payload["format"] == "telemetry/v1"
        assert payload["counters"] == {'a.b{k="1"}': 2}
        assert payload["gauges"] == {"g": 0.5}
        # canonical: no whitespace, sorted keys
        assert " " not in text
        assert text == to_json(reg)

    def test_deterministic_across_identical_runs(self):
        def one_run():
            r = MetricsRegistry()
            r.counter("c", x="1").inc(3)
            r.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
            r.timer("t").add(0.123)  # wall clock — must not leak
            with r.span("s"):
                pass
            return to_json(r)

        assert one_run() == one_run()

    def test_nondeterministic_section_is_opt_in(self, reg):
        reg.timer("t").add(1.0)
        with reg.span("s"):
            pass
        default = json.loads(to_json(reg))
        assert "nondeterministic" not in default
        assert set(default) == {"format", "counters", "gauges", "histograms"}
        full = json.loads(to_json(reg, include_nondeterministic=True))
        assert full["nondeterministic"]["timers"]["t"]["count"] == 1
        assert len(full["nondeterministic"]["spans"]) == 1


_PROM_LINE = re.compile(
    r"^(# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* ?.*"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+(inf)?)$"
)


class TestPrometheusExport:
    def test_every_line_parses(self, reg):
        reg.counter("part.vertices", algo="bpart").inc(100)
        reg.gauge("bias", layer=1).set(0.05)
        reg.histogram("wait", buckets=(0.1, 1.0)).observe(0.5)
        reg.timer("run").add(1.5)
        for line in to_prometheus(reg).splitlines():
            assert _PROM_LINE.match(line), f"bad exposition line: {line!r}"

    def test_counter_total_suffix(self, reg):
        reg.counter("hits").inc(7)
        text = to_prometheus(reg)
        assert "# TYPE repro_hits_total counter" in text
        assert "repro_hits_total 7" in text

    def test_histogram_cumulative_buckets(self, reg):
        h = reg.histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        text = to_prometheus(reg)
        assert 'repro_h_bucket{le="1.0"} 1' in text
        assert 'repro_h_bucket{le="10.0"} 2' in text
        assert 'repro_h_bucket{le="+Inf"} 3' in text
        assert "repro_h_count 3" in text

    def test_timer_rendered_as_seconds_summary(self, reg):
        reg.timer("run").add(2.0)
        text = to_prometheus(reg)
        assert "# TYPE repro_run_seconds summary" in text
        assert "repro_run_seconds_count 1" in text

    def test_label_values_escaped(self, reg):
        reg.counter("c", path='a"b\n').inc()
        text = to_prometheus(reg)
        assert r"a\"b\n" in text

    def test_empty_registry_empty_output(self, reg):
        assert to_prometheus(reg) == ""


class TestChromeSpans:
    def test_spans_render_as_x_events(self, reg):
        with reg.span("phase", layer=1):
            pass
        events = spans_to_chrome_events(reg)
        meta = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(meta) == 2 and len(xs) == 1
        assert xs[0]["pid"] == 1  # separate track from BSP machines (pid 0)
        assert xs[0]["args"] == {"layer": 1}

    def test_no_spans_no_events(self, reg):
        assert spans_to_chrome_events(reg) == []

    def test_merges_into_ledger_trace(self, reg):
        from repro.cluster.ledger import TimingLedger
        from repro.cluster.trace import to_chrome_trace

        ledger = TimingLedger(2)
        ledger.record(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        with reg.span("job"):
            pass
        events = to_chrome_trace(
            ledger, extra_events=spans_to_chrome_events(reg)
        )
        assert {e.get("pid") for e in events} == {0, 1}


class TestRenderTable:
    def test_lists_every_kind(self, reg):
        reg.counter("c").inc()
        reg.gauge("g").set(1)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        reg.timer("t").add(0.1)
        with reg.span("s"):
            pass
        table = render_table(reg)
        for word in ("counter", "gauge", "histogram", "timer", "spans"):
            assert word in table

    def test_empty(self, reg):
        assert "no metrics" in render_table(reg)


# ----------------------------------------------------------------------
# Disabled-mode parity: the acceptance guarantee
# ----------------------------------------------------------------------
class TestDisabledModeParity:
    def test_partition_and_ledger_bit_exact(self):
        """Enabling telemetry must not change a single output bit:
        assignments, cache keys, and ledger JSON are identical."""
        from repro.bench.artifacts import config_key, scalar_attrs
        from repro.cluster import BSPCluster
        from repro.engines.gemini import GeminiEngine, PageRank
        from repro.graph import chung_lu
        from repro.partition import get_partitioner

        g = chung_lu(400, 8.0, rng=9)

        def one_run():
            p = get_partitioner("bpart", seed=1)
            result = p.partition(g, 4)
            cluster = BSPCluster(4)
            engine_result = GeminiEngine(cluster).run(
                g, result.assignment, PageRank(iterations=3)
            )
            key = config_key("bpart", scalar_attrs(p))
            return (
                result.assignment.parts.tobytes(),
                key,
                engine_result.ledger.to_json(),
            )

        telemetry.set_enabled(False)
        off = one_run()
        telemetry.set_enabled(True)
        telemetry.reset()
        on = one_run()
        assert on == off
        # and the enabled run actually collected something
        assert telemetry.registry().metrics()

    def test_every_paper_partitioner_bit_exact(self):
        """The same for each of the paper's five partitioners on a 5000-vertex
        social graph: assignment bytes and cache keys."""
        from repro.bench.artifacts import config_key, scalar_attrs
        from repro.graph import social_graph
        from repro.partition import get_partitioner

        g = social_graph(5000, 12.0, 2.2, rng=11)

        def run_all():
            out = {}
            for algo in ("bpart", "fennel", "ldg", "chunk-v", "hash"):
                p = get_partitioner(algo, seed=1)
                parts = p.partition(g, 8).assignment.parts
                out[algo] = (parts.tobytes(), config_key(algo, scalar_attrs(p)))
            return out

        off = run_all()
        telemetry.set_enabled(True)
        on = run_all()
        assert on == off
        assert telemetry.registry().metrics()
