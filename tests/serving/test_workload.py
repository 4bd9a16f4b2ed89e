"""Workload generator: validation, canonical identity, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph import social_graph
from repro.serving import KIND_KHOP, KIND_WALK, WorkloadSpec


@pytest.fixture(scope="module")
def graph():
    return social_graph(2000, 10.0, 2.2, rng=7)


class TestSpecValidation:
    def test_defaults_valid(self):
        WorkloadSpec()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"users": 0},
            {"duration": 0.0},
            {"rate": -1.0},
            {"zipf_s": 0.0},
            {"locality": 1.5},
            {"locality": -0.1},
            {"walk_frac": 2.0},
            {"window_frac": 0.0},
            {"khop": 3},
            {"khop_cap": 0},
            {"walk_steps": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(**kwargs)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True])
    @pytest.mark.parametrize("name", ["users", "khop", "khop_cap", "walk_steps"])
    def test_count_knobs_take_positive_integers_only(self, name, bad):
        # ``walk_steps=2.5`` used to digest as 2 and then fail mid-run;
        # ``walk_steps=True`` served as one step.
        with pytest.raises(ConfigurationError, match=f"^{name} must be a positive integer"):
            WorkloadSpec(**{name: bad})
        doc = {**WorkloadSpec().to_dict(), name: bad}
        with pytest.raises(ConfigurationError, match=f"^{name} "):
            WorkloadSpec.from_dict(doc)


class TestCanonicalIdentity:
    def test_digest_stable_across_instances(self):
        a, b = WorkloadSpec(seed=9), WorkloadSpec(seed=9)
        assert a.digest() == b.digest()
        assert a.to_json() == b.to_json()

    def test_digest_sensitive_to_every_knob(self):
        base = WorkloadSpec()
        digests = {base.digest()}
        for kwargs in (
            {"users": 3},
            {"rate": 1.0},
            {"duration": 9.0},
            {"zipf_s": 2.0},
            {"locality": 0.1},
            {"walk_frac": 0.9},
            {"khop": 1},
            {"seed": 77},
        ):
            digests.add(WorkloadSpec(**kwargs).digest())
        assert len(digests) == 9

    def test_json_roundtrip(self):
        spec = WorkloadSpec(users=11, rate=200.0, seed=5)
        assert WorkloadSpec.from_json(spec.to_json()) == spec

    def test_from_json_rejects_wrong_schema(self):
        with pytest.raises(ConfigurationError, match="schema"):
            WorkloadSpec.from_json('{"schema": "workload/v0", "users": 3}')

    def test_from_json_rejects_unknown_fields(self):
        text = WorkloadSpec().to_json().replace('"users"', '"userz"')
        with pytest.raises(ConfigurationError, match="unknown"):
            WorkloadSpec.from_json(text)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec.from_json("not json at all")


class TestGeneration:
    def test_deterministic(self, graph):
        spec = WorkloadSpec(users=200, duration=0.5, rate=1000.0, seed=4)
        t1, t2 = spec.generate(graph), spec.generate(graph)
        assert t1.fingerprint() == t2.fingerprint()
        np.testing.assert_array_equal(t1.times, t2.times)
        np.testing.assert_array_equal(t1.vertex, t2.vertex)
        np.testing.assert_array_equal(t1.user, t2.user)
        np.testing.assert_array_equal(t1.kind, t2.kind)

    def test_seed_changes_trace(self, graph):
        a = WorkloadSpec(users=200, duration=0.5, rate=1000.0, seed=4).generate(graph)
        b = WorkloadSpec(users=200, duration=0.5, rate=1000.0, seed=5).generate(graph)
        assert a.fingerprint() != b.fingerprint()

    def test_open_loop_arrivals(self, graph):
        spec = WorkloadSpec(users=100, duration=2.0, rate=500.0, seed=1)
        trace = spec.generate(graph)
        assert trace.times[-1] < spec.duration
        assert np.all(np.diff(trace.times) >= 0)
        # Poisson count stays within 6 sigma of rate * duration.
        expect = spec.rate * spec.duration
        assert abs(trace.num_queries - expect) < 6 * np.sqrt(expect)

    def test_columns_aligned_and_in_range(self, graph):
        trace = WorkloadSpec(users=50, duration=0.2, rate=800.0, seed=2).generate(graph)
        q = trace.num_queries
        assert trace.user.shape == trace.vertex.shape == trace.kind.shape == (q,)
        assert trace.user.min() >= 0 and trace.user.max() < 50
        assert trace.vertex.min() >= 0
        assert trace.vertex.max() < graph.num_vertices
        assert set(np.unique(trace.kind)) <= {KIND_KHOP, KIND_WALK}

    def test_walk_frac_extremes(self, graph):
        all_khop = WorkloadSpec(walk_frac=0.0, duration=0.2, seed=3).generate(graph)
        all_walk = WorkloadSpec(walk_frac=1.0, duration=0.2, seed=3).generate(graph)
        assert np.all(all_khop.kind == KIND_KHOP)
        assert np.all(all_walk.kind == KIND_WALK)

    def test_popularity_prefers_hubs(self, graph):
        # locality off isolates the Zipf draw: queried vertices should
        # have well above-average degree (hubs rank first).
        trace = WorkloadSpec(
            locality=0.0, zipf_s=1.5, duration=0.5, rate=2000.0, seed=6
        ).generate(graph)
        assert graph.degrees[trace.vertex].mean() > 2 * graph.degrees.mean()

    def test_locality_confines_to_windows(self, graph):
        spec = WorkloadSpec(
            locality=1.0, window_frac=0.01, users=30, duration=0.2, rate=500.0, seed=8
        )
        trace = spec.generate(graph)
        window = max(1, int(spec.window_frac * graph.num_vertices))
        # Every query must land within its user's community window
        # (homes are re-derived exactly as generate() derives them).
        from repro.serving.workload import _SALT_HOMES
        from repro.utils.rng import derive_rng

        order = np.argsort(-graph.degrees, kind="stable")
        ranks = np.arange(1, graph.num_vertices + 1, dtype=np.float64)
        cdf = np.cumsum(ranks ** -spec.zipf_s)
        cdf /= cdf[-1]
        rng = derive_rng(spec.seed, _SALT_HOMES)
        idx = np.searchsorted(cdf, rng.random(spec.users), side="left")
        homes = order[np.minimum(idx, graph.num_vertices - 1)]
        span = np.abs(trace.vertex - homes[trace.user])
        at_edge = (trace.vertex == 0) | (trace.vertex == graph.num_vertices - 1)
        assert np.all((span <= window) | at_edge)

    def test_empty_graph_rejected(self):
        from repro.graph import from_edges

        g = from_edges([], [], num_vertices=0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec().generate(g)

    def test_trace_arrays_frozen(self, graph):
        trace = WorkloadSpec(duration=0.1, seed=1).generate(graph)
        with pytest.raises(ValueError):
            trace.vertex[0] = 1
