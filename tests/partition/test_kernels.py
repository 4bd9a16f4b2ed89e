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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.graph import chung_lu, rmat, social_graph, spill_csr
from repro.graph.stream import vertex_stream
from repro.partition import (
    BPartPartitioner,
    FennelPartitioner,
    LDGPartitioner,
    available_kernels,
    edge_cut_ratio,
    get_kernel,
)
from repro.partition import dynamic
from repro.partition._streamcore import default_alpha, stream_partition
from repro.partition.bpart import bpart_vertex_weights
from repro.partition.dynamic import DynamicPartitioner
from repro.partition.kernels import KERNEL_CHOICES
from repro.partition.kernels.incremental import single_incremental
from repro.partition.kernels.scalar import ldg_scalar, single_scalar
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
