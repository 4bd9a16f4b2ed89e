"""Parity and contract tests for the streaming-kernel layer.

The kernel layer's core promise is that ``kernel=`` trades throughput
only: every backend must produce *identical* assignments to the
``scalar`` reference for the Fennel score and the BPart weighted
indicator, across stream orders, seeds, and re-streaming passes. LDG
and the dynamic single-vertex step are not dispatched: each has one
loop that runs and a ``*_scalar`` spec it is compared against here.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.graph import CSRGraph, chung_lu, rmat, social_graph, spill_csr
from repro.graph.stream import vertex_stream
from repro.partition import (
    BPartPartitioner,
    FennelPartitioner,
    LDGPartitioner,
    PartitionAssignment,
    available_kernels,
    edge_cut_ratio,
    get_kernel,
)
from repro.partition import dynamic
from repro.partition._streamcore import default_alpha, stream_partition
from repro.partition.bpart import bpart_vertex_weights, weighted_stream_partition
from repro.partition.dynamic import DynamicPartitioner
from repro.partition.kernels import KERNEL_CHOICES
from repro.partition.kernels.incremental import single_incremental
from repro.partition.kernels.buffered import fennel_buffered
from repro.partition.kernels.scalar import fennel_scalar, ldg_scalar, single_scalar
from repro.utils import canon

# Every backend registered in this environment except the reference.
NON_SCALAR = [name for name in available_kernels() if name != "scalar"]


def _fennel_parts(g, k, *, kernel, order="natural", rng=None, passes=1, weighted=False):
    w = bpart_vertex_weights(g, 0.5) if weighted else np.ones(g.num_vertices)
    return stream_partition(
        g,
        k,
        vertex_weights=w,
        alpha=default_alpha(g, k),
        order=order,
        rng=rng,
        passes=passes,
        kernel=kernel,
    )


class TestRegistry:
    def test_scalar_always_available(self):
        assert "scalar" in available_kernels()
        assert "incremental" in available_kernels()
        assert "buffered" in available_kernels()

    def test_auto_resolves(self):
        assert get_kernel("auto").name == "buffered"

    def test_numba_is_not_a_choice(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["partition", "--kernel", "numba"])
        assert exc.value.code == 2 and "invalid choice: 'numba'" in capsys.readouterr().err

    def test_none_means_auto(self):
        assert get_kernel(None).name == get_kernel("auto").name

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            get_kernel("cuda")

    def test_choices_cover_registry(self):
        for name in available_kernels():
            assert name in KERNEL_CHOICES


@pytest.mark.parametrize("kernel", NON_SCALAR)
class TestFennelParity:
    """scalar ≡ every other backend, bit-for-bit."""

    @pytest.mark.parametrize("order", ["natural", "random", "degree_desc"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_orders_and_seeds(self, kernel, order, seed):
        g = social_graph(800, 10.0, 2.3, rng=seed)
        ref = _fennel_parts(g, 5, kernel="scalar", order=order, rng=seed)
        out = _fennel_parts(g, 5, kernel=kernel, order=order, rng=seed)
        assert np.array_equal(ref, out)

    @pytest.mark.parametrize("passes", [2, 3])
    def test_restreaming(self, kernel, passes):
        g = social_graph(600, 12.0, 2.2, rng=9)
        ref = _fennel_parts(g, 4, kernel="scalar", passes=passes, weighted=True)
        out = _fennel_parts(g, 4, kernel=kernel, passes=passes, weighted=True)
        assert np.array_equal(ref, out)

    def test_weighted_indicator(self, kernel):
        g = chung_lu(700, 9.0, rng=21)
        ref = _fennel_parts(g, 6, kernel="scalar", weighted=True)
        out = _fennel_parts(g, 6, kernel=kernel, weighted=True)
        assert np.array_equal(ref, out)

    def test_large_k(self, kernel):
        # BPart over-splits into dozens of pieces; parity must hold there.
        g = chung_lu(900, 8.0, rng=33)
        ref = _fennel_parts(g, 48, kernel="scalar")
        out = _fennel_parts(g, 48, kernel=kernel)
        assert np.array_equal(ref, out)

    def test_single_part_and_tiny_graph(self, kernel):
        g = chung_lu(40, 4.0, rng=5)
        assert np.array_equal(
            _fennel_parts(g, 1, kernel="scalar"), _fennel_parts(g, 1, kernel=kernel)
        )

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(2, 9),
        order=st.sampled_from(["natural", "random", "degree", "bfs"]),
        passes=st.integers(1, 2),
    )
    def test_property_random_social_graphs(self, kernel, seed, k, order, passes):
        g = social_graph(300, 8.0, 2.4, rng=seed % 7)
        ref = _fennel_parts(g, k, kernel="scalar", order=order, rng=seed, passes=passes)
        out = _fennel_parts(g, k, kernel=kernel, order=order, rng=seed, passes=passes)
        assert np.array_equal(ref, out)


@st.composite
def stream_cases(draw):
    """A small undirected graph (self-loops and isolated vertices allowed,
    built as CSR directly since ``from_edges`` drops self-loops) plus the
    knobs of one ``stream_partition`` call."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    src = np.array([a for a, b in pairs] + [b for a, b in pairs if a != b], dtype=np.int64)
    dst = np.array([b for a, b in pairs] + [a for a, b in pairs if a != b], dtype=np.int64)
    order = np.argsort(src, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    g = CSRGraph(indptr, dst[order].astype(np.int32))
    k = draw(st.integers(1, 8))
    # BPart's indicator, perturbed per vertex so that releasing a re-streamed
    # vertex can leave a part's load a rounding error below zero (a NaN penalty)
    jitter = draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
    return g, k, dict(
        vertex_weights=bpart_vertex_weights(g, draw(st.sampled_from([0.0, 0.5, 1.0]))) * jitter,
        alpha=draw(st.sampled_from([default_alpha(g, k), 0.5, 3.0])),
        gamma=draw(st.sampled_from([1.0, 1.5, 2.0])),
        slack=draw(st.floats(0.8, 1.1)),
        passes=draw(st.integers(1, 3)),
        order=draw(st.sampled_from(["natural", "random"])),
        rng=draw(st.integers(0, 9)),
    )


class TestBufferedEqualsScalar:
    """The compiled resolver against the executable spec, dense and sharded."""

    @settings(max_examples=200, deadline=None)
    @given(case=stream_cases(), shard_size=st.integers(1, 16))
    def test_property_buffered_is_scalar(self, case, shard_size):
        g, k, knobs = case
        with np.errstate(invalid="ignore"):  # the spec's np.power on a negative load
            ref = stream_partition(g, k, kernel="scalar", **knobs)
        assert np.array_equal(stream_partition(g, k, kernel="buffered", **knobs), ref)
        with tempfile.TemporaryDirectory() as tmp:
            sharded = spill_csr(g, tmp, shard_size=shard_size)
            try:
                assert np.array_equal(stream_partition(sharded, k, **knobs), ref)
            finally:
                sharded.close()

    @pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize(
        "start", [0.0, -0.0, -1e-17, 5e-324], ids=["zero", "negzero", "tinyneg", "subnormal"]
    )
    def test_penalty_edge_loads(self, start, gamma):
        # One part starts at the edge-case load, the others at 0.5 and 1.0;
        # -1e-17 ** 0.5 is NaN, which np.argmax (the spec) picks first.
        g = chung_lu(30, 4.0, rng=3)
        stream = np.arange(g.num_vertices, dtype=np.int64)
        out = {}
        for name, kernel in (("scalar", fennel_scalar), ("buffered", fennel_buffered)):
            parts = np.full(g.num_vertices, -1, dtype=np.int32)
            loads = np.array([0.5, start, 1.0])
            with np.errstate(invalid="ignore"):
                kernel(g.indptr, g.indices, stream, parts, loads, np.ones(g.num_vertices),
                       alpha=0.7, gamma=gamma, capacity=40.0, passes=1)
            out[name] = parts, loads
        assert np.array_equal(out["scalar"][0], out["buffered"][0])
        assert out["scalar"][1].tobytes() == out["buffered"][1].tobytes()

    def test_arrays_are_checked_before_the_c_call(self):
        g = chung_lu(40, 4.0, rng=5)
        with pytest.raises(ValueError, match="5 weight values, n=40"):
            stream_partition(g, 3, vertex_weights=np.ones(5), alpha=0.5)
        parts = np.full(g.num_vertices, 3, dtype=np.int32)  # a part id >= k
        with pytest.raises(ValueError, match="part ids below 3"):
            fennel_buffered(g.indptr, g.indices, np.arange(g.num_vertices), parts,
                            np.zeros(3), np.ones(g.num_vertices),
                            alpha=0.5, gamma=1.5, capacity=20.0, passes=1)


def _ldg_spec_parts(g, k, *, order, seed, slack=1.1):
    """The LDG rule run directly through its executable spec."""
    parts = np.full(g.num_vertices, -1, dtype=np.int32)
    ldg_scalar(
        g.indptr,
        g.indices,
        vertex_stream(g, order, rng=seed),
        parts,
        np.zeros(k, dtype=np.float64),
        capacity=slack * g.num_vertices / k,
    )
    return parts


# ``buffered`` is the one loop that runs; metadata and telemetry still name it.
# The one-value parameter only keeps the ``[…-buffered]`` ids these tests have
# always had (they are in the tier-1 floor list), now that the other values went.
@pytest.mark.parametrize("kernel", ["buffered"])
class TestLDGParity:
    @pytest.mark.parametrize("order", ["natural", "random"])
    def test_assignments_identical(self, kernel, order):
        g = social_graph(900, 11.0, 2.3, rng=4)
        ref = _ldg_spec_parts(g, 6, order=order, seed=8)
        out = LDGPartitioner(order=order, seed=8).partition(g, 6)
        assert np.array_equal(ref, out.assignment.parts)

    def test_metadata_reports_backend(self, kernel):
        g = chung_lu(150, 6.0, rng=2)
        res = LDGPartitioner().partition(g, 3)
        assert res.metadata["kernel"] == kernel


class TestBufferedContract:
    """The ISSUE-level guarantees for the chunked backend: never exceed
    the capacity bound, stay within ±10% edge-cut of scalar. (The
    implementation is in fact bit-exact — tested above — so these
    looser bounds hold a fortiori; they are what any future
    approximate chunk-resolution must still satisfy.)"""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_capacity_bound(self, seed):
        g = social_graph(2000, 14.0, 2.2, rng=seed)
        k, slack = 8, 1.1
        parts = stream_partition(
            g,
            k,
            vertex_weights=np.ones(g.num_vertices),
            alpha=default_alpha(g, k),
            slack=slack,
            kernel="buffered",
        )
        counts = np.bincount(parts, minlength=k)
        assert counts.max() <= slack * g.num_vertices / k + 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_edge_cut_within_tolerance(self, seed):
        g = social_graph(2000, 14.0, 2.2, rng=seed)
        ref = _fennel_parts(g, 8, kernel="scalar")
        buf = _fennel_parts(g, 8, kernel="buffered")
        cut_ref = edge_cut_ratio(g, ref)
        cut_buf = edge_cut_ratio(g, buf)
        assert abs(cut_buf - cut_ref) <= 0.1 * cut_ref

    def test_chunk_boundary_sizes(self):
        # n not divisible by the chunk size, n smaller than one chunk.
        for n in (40, 257, 512):
            g = chung_lu(n, 6.0, rng=n)
            ref = _fennel_parts(g, 4, kernel="scalar")
            buf = _fennel_parts(g, 4, kernel="buffered")
            assert np.array_equal(ref, buf)


class TestPartitionerKnob:
    @pytest.mark.parametrize("kernel", NON_SCALAR)
    def test_fennel_partitioner(self, powerlaw_small, kernel):
        ref = FennelPartitioner(kernel="scalar").partition(powerlaw_small, 8)
        out = FennelPartitioner(kernel=kernel).partition(powerlaw_small, 8)
        assert np.array_equal(ref.assignment.parts, out.assignment.parts)
        assert out.metadata["kernel"] == kernel

    @pytest.mark.parametrize("kernel", NON_SCALAR)
    def test_bpart_partitioner(self, powerlaw_small, kernel):
        ref = BPartPartitioner(kernel="scalar").partition(powerlaw_small, 4)
        out = BPartPartitioner(kernel=kernel).partition(powerlaw_small, 4)
        assert np.array_equal(ref.assignment.parts, out.assignment.parts)

    def test_invalid_kernel_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            FennelPartitioner(kernel="gpu")
        with pytest.raises(ConfigurationError):
            BPartPartitioner(kernel="gpu")

    def test_auto_is_default_and_resolved(self, powerlaw_small):
        res = FennelPartitioner().partition(powerlaw_small, 4)
        assert res.metadata["kernel"] == get_kernel("auto").name


def _churn(dp, g, victims):
    """Ingest ``g`` in id order, remove ``victims``, re-add them; every decision."""
    out = [dp.add_vertex(v, g.neighbors(v)) for v in range(g.num_vertices)]
    out += [dp.remove_vertex(int(v)) for v in victims]
    out += [dp.add_vertex(int(v), g.neighbors(int(v))) for v in victims]
    return out


class TestDynamicParity:
    """``single_incremental`` (the step that runs) ≡ ``single_scalar`` (its spec)."""

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 9),
        data=st.data(),
        gamma=st.sampled_from([1.0, 1.5, 2.0]),
        alpha=st.sampled_from([0.0, 0.37, 2.0]),
    )
    def test_property_single_step_identical(self, k, data, gamma, alpha):
        # small integer grids so ties, zero loads and all-saturated states are common
        overlap = np.array(data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)), float)
        loads = np.array(data.draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)), float)
        loads *= data.draw(st.sampled_from([1.0, 0.75]))
        capacity = data.draw(st.sampled_from([0.0, 1.5, 3.0, 100.0]))
        args = dict(alpha=alpha, gamma=gamma, capacity=capacity)
        assert single_incremental(overlap, loads, **args) == single_scalar(overlap, loads, **args)

    def test_online_ingest_identical(self, monkeypatch):
        # ``_place`` reads the module global per arrival: finish the
        # incremental run before the oracle is substituted.
        g = chung_lu(500, 8.0, rng=77)
        out = _churn(DynamicPartitioner(4), g, victims=[])
        monkeypatch.setattr(dynamic, "single_incremental", single_scalar)
        assert _churn(DynamicPartitioner(4), g, victims=[]) == out

    def test_churn_identical(self, monkeypatch):
        g = chung_lu(300, 8.0, rng=78)
        victims = np.random.default_rng(79).choice(g.num_vertices, size=90, replace=False)
        out = _churn(DynamicPartitioner(4), g, victims)
        monkeypatch.setattr(dynamic, "single_incremental", single_scalar)
        assert _churn(DynamicPartitioner(4), g, victims) == out


GOLDEN = json.loads(
    (Path(__file__).parents[1] / "data" / "kernel_digests.json").read_text()
)
GOLDEN_GRAPHS = {
    "social": lambda: social_graph(1200, 8.0, 2.3, rng=11),
    "rmat": lambda: rmat(10, 4, rng=5),
}


def ldg_cell_digest(graph, order):
    return LDGPartitioner(order=order, seed=8).partition(graph, 6).assignment.fingerprint()


def fennel_cell_digest(graph, rule, passes, slack):
    """Fennel k=6, or BPart's phase 1 at 32 pieces, through the default kernel."""
    if rule == "fennel":
        res = FennelPartitioner(slack=slack, passes=passes).partition(graph, 6)
        return res.assignment.fingerprint()
    parts = weighted_stream_partition(graph, 32, slack=slack, passes=passes)
    return PartitionAssignment(graph, parts, 32).fingerprint()


def dynamic_sequence_digest():
    g = chung_lu(500, 8.0, rng=77)
    victims = np.random.default_rng(79).choice(g.num_vertices, size=150, replace=False)
    dp = DynamicPartitioner(4)
    return canon.digest(
        {
            "decisions": _churn(dp, g, victims),
            "vertex_counts": dp.vertex_counts.tolist(),
            "edge_counts": dp.edge_counts.tolist(),
        }
    )


class TestBytesDidNotMove:
    """``tests/data/kernel_digests.json`` was recorded on the commit *before*
    LDG and the dynamic step left the kernel registry, once per kernel
    (``scalar``, ``incremental``, ``buffered``, ``parallel`` at ``jobs=2``;
    ``scalar`` and ``incremental`` for the dynamic sequence) — all kernels of
    a cell agreed. The one remaining path must reproduce every digest."""

    @pytest.mark.parametrize("kind", ["dense", "sharded"])
    @pytest.mark.parametrize("order", ["natural", "random"])
    @pytest.mark.parametrize("graph", sorted(GOLDEN_GRAPHS))
    def test_ldg_digest_pinned(self, graph, order, kind, tmp_path):
        g = GOLDEN_GRAPHS[graph]()
        if kind == "sharded":
            g = spill_csr(g, tmp_path, shard_size=256)
        assert ldg_cell_digest(g, order) == GOLDEN[f"ldg/{graph}/{order}/{kind}"]

    def test_dynamic_sequence_pinned(self):
        assert dynamic_sequence_digest() == GOLDEN["dynamic/ingest+churn"]

    # Recorded before the compiled resolver landed, with every kernel of a cell
    # agreeing (scalar, incremental, buffered and parallel at jobs=2; sharded
    # cells through buffered, scalar and parallel). Slack 0.9 is the value that
    # reaches the all-saturated fallback: at slack >= 1 some part is always
    # below capacity, since the loads sum to less than k·capacity.
    @pytest.mark.parametrize("kind", ["dense", "sharded"])
    @pytest.mark.parametrize("slack", [0.9, 1.0, 1.1])
    @pytest.mark.parametrize("passes", [1, 3])
    @pytest.mark.parametrize("rule", ["fennel", "phase1"])
    @pytest.mark.parametrize("graph", sorted(GOLDEN_GRAPHS))
    def test_fennel_rule_digest_pinned(self, graph, rule, passes, slack, kind, tmp_path):
        g = GOLDEN_GRAPHS[graph]()
        if kind == "sharded":
            g = spill_csr(g, tmp_path, shard_size=256)
        key = f"{rule}/{graph}/p{passes}/s{slack}/{kind}"
        assert fennel_cell_digest(g, rule, passes, slack) == GOLDEN[key]


@pytest.mark.parametrize("option, value", [("kernel", "buffered"), ("jobs", 2)], ids=["kernel", "jobs"])
def test_ldg_options_are_gone(option, value):
    with pytest.raises(TypeError):
        LDGPartitioner(**{option: value})


def test_dynamic_kernel_option_is_gone():
    with pytest.raises(TypeError):
        DynamicPartitioner(4, kernel="incremental")


class TestEdgelessGraphs:
    """`default_alpha` guard: m = 0 must not collapse every vertex into
    part 0 (α = 0 → zero penalty → argmax always picks part 0)."""

    def test_alpha_positive_on_edgeless(self):
        from repro.graph import from_edges

        g = from_edges([], [], num_vertices=12)
        assert default_alpha(g, 3) > 0.0

    @pytest.mark.parametrize("kernel", sorted(set(available_kernels())))
    def test_round_robin_on_edgeless(self, kernel):
        from repro.graph import from_edges

        g = from_edges([], [], num_vertices=12)
        parts = stream_partition(
            g,
            3,
            vertex_weights=np.ones(12),
            alpha=default_alpha(g, 3),
            kernel=kernel,
        )
        # Positive penalty + no overlap signal → least-loaded each step.
        assert list(np.bincount(parts, minlength=3)) == [4, 4, 4]
        assert list(parts[:6]) == [0, 1, 2, 0, 1, 2]


class TestStreamTimer:
    def test_failed_kernel_still_closes_the_stream_timer(self, monkeypatch):
        import dataclasses

        from repro import telemetry
        from repro.partition import _streamcore

        def explode(*args, **kwargs):
            raise RuntimeError("kernel died")

        broken = dataclasses.replace(get_kernel("buffered"), fennel=explode)
        monkeypatch.setattr(_streamcore, "get_kernel", lambda name: broken)
        telemetry.set_enabled(True)
        g = chung_lu(60, 4.0, rng=2)
        with pytest.raises(RuntimeError, match="kernel died"):
            _fennel_parts(g, 3, kernel="buffered")
        timer = telemetry.registry().timer("partition.stream.seconds", kernel="buffered")
        assert timer.count == 1
