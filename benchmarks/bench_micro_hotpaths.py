"""Micro-benchmarks of the library's hot paths.

Unlike the experiment benches (single-shot jobs), these run under
pytest-benchmark's statistical timing and track the per-operation
throughput of the kernels everything else is built on: the streaming
score loop, the reduceat gather, walker stepping, and cut accounting.
Useful for catching performance regressions in the vectorised cores.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engines.gemini.vertex_program import neighbor_sum
from repro.engines.knightking.transition import arcs_exist, uniform_neighbor
from repro.graph import social_graph
from repro.partition._streamcore import default_alpha, stream_partition
from repro.partition.kernels import available_kernels
from repro.partition.ldg import LDGPartitioner
from repro.partition.metrics import edge_cut_ratio


@pytest.fixture(scope="module")
def g():
    return social_graph(10_000, 16.0, 2.2, rng=1)


def test_stream_partition_pass(benchmark, g):
    """One Fennel-style streaming pass over 10k vertices (auto kernel)."""
    weights = np.ones(g.num_vertices)
    alpha = default_alpha(g, 8)
    benchmark(
        stream_partition,
        g,
        8,
        vertex_weights=weights,
        alpha=alpha,
    )


@pytest.mark.parametrize("kernel", available_kernels())
def test_stream_partition_kernel(benchmark, g, kernel):
    """The same pass per backend — the speedup ledger the kernel layer
    is accountable to (see BENCH_hotpaths.json for the recorded trail)."""
    weights = np.ones(g.num_vertices)
    alpha = default_alpha(g, 8)
    benchmark(
        stream_partition,
        g,
        8,
        vertex_weights=weights,
        alpha=alpha,
        kernel=kernel,
    )


def test_ldg_kernel(benchmark, g):
    """LDG through its one running loop (``ldg_buffered``)."""
    benchmark(lambda: LDGPartitioner().partition(g, 8))


def test_neighbor_sum_gather(benchmark, g):
    """The reduceat-over-CSR gather used by every iteration app."""
    values = np.random.default_rng(0).random(g.num_vertices)
    benchmark(neighbor_sum, g, values)


def test_walker_step_batch(benchmark, g):
    """One vectorised uniform step for 50k walkers."""
    rng = np.random.default_rng(1)
    pos = rng.integers(0, g.num_vertices, size=50_000)
    benchmark(uniform_neighbor, g, pos, rng)


def test_arcs_exist_batch(benchmark, g):
    """Batched sorted-row adjacency test (node2vec's inner check)."""
    rng = np.random.default_rng(2)
    src = rng.integers(0, g.num_vertices, size=50_000)
    dst = rng.integers(0, g.num_vertices, size=50_000)
    benchmark(arcs_exist, g, src, dst)


def test_edge_cut_accounting(benchmark, g):
    """Cut-ratio computation over all arcs."""
    parts = np.arange(g.num_vertices) % 8
    benchmark(edge_cut_ratio, g, parts)
