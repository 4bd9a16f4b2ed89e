"""Linear Deterministic Greedy streaming partitioner.

LDG (Stanton & Kliot, KDD 2012) is the other classic streaming
heuristic: vertex ``v`` goes to the part maximising

    |V_i ∩ N(v)| · (1 − |V_i| / C),      C = ν·n/k

i.e. neighbour overlap scaled by remaining capacity. Not compared in the
paper's evaluation, but it predates Fennel and is included as an extra
baseline for the bias-scatter ablation: like Fennel it balances only the
vertex dimension.

The inner loop is served by the shared kernel layer
(:mod:`repro.partition.kernels`) rather than a private copy — every
backend implements the LDG rule alongside the Fennel score, so the
``kernel=`` knob applies here too.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro import telemetry
from repro.graph.csr import CSRGraph
from repro.graph.stream import vertex_stream
from repro.partition.assignment import PartitionAssignment
from repro.partition.base import Partitioner, register_partitioner
from repro.partition.kernels import get_kernel, resolve_kernel_name
from repro.utils.validation import check_positive

__all__ = ["LDGPartitioner"]


class LDGPartitioner(Partitioner):
    """Linear deterministic greedy streaming assignment."""

    name = "ldg"

    def __init__(
        self,
        *,
        slack: float = 1.1,
        order: str = "natural",
        seed: int | None = None,
        kernel: str = "auto",
        jobs: int | None = None,
    ) -> None:
        check_positive("slack", slack)
        self._slack = slack
        self._order = order
        self._seed = seed
        self._jobs = jobs
        self._kernel = get_kernel(resolve_kernel_name(kernel, jobs))

    def _partition(
        self, graph: CSRGraph, num_parts: int
    ) -> tuple[PartitionAssignment, dict[str, Any]]:
        n = graph.num_vertices
        k = num_parts
        parts = np.full(n, -1, dtype=np.int32)
        loads = np.zeros(k, dtype=np.float64)
        capacity = self._slack * n / k
        stream = vertex_stream(graph, self._order, rng=self._seed)

        # Sharded graphs have no global indices array: route every kernel
        # choice through the buffered backend's chunked gather (bit-exact
        # with the others, so the knob still trades throughput only).
        gather = getattr(graph, "gather_block", None)
        parallel = self._kernel.name == "parallel"
        if parallel:
            effective = "parallel"
        else:
            effective = "buffered" if gather is not None else self._kernel.name
        with self._phase("stream"):
            if parallel:
                from repro.partition.kernels.parallel_backend import ldg_parallel

                dense = gather is None
                ldg_parallel(
                    graph.indptr if dense else None,
                    graph.indices if dense else None,
                    stream,
                    parts,
                    loads,
                    capacity=float(capacity),
                    gather=gather,
                    graph=graph,
                    jobs=self._jobs,
                )
            elif gather is not None:
                from repro.partition.kernels.buffered import ldg_buffered

                ldg_buffered(
                    None,
                    None,
                    stream,
                    parts,
                    loads,
                    capacity=float(capacity),
                    gather=gather,
                )
            else:
                self._kernel.ldg(
                    graph.indptr,
                    graph.indices,
                    stream,
                    parts,
                    loads,
                    capacity=float(capacity),
                )
        if telemetry.enabled():
            reg = telemetry.active()
            reg.counter("partition.stream.vertices", kernel=effective).inc(n)
            reg.gauge("partition.stream.saturated_parts").set(
                int((loads >= capacity).sum())
            )
        return (
            PartitionAssignment(graph, parts, num_parts),
            {"order": self._order, "kernel": effective},
        )


register_partitioner("ldg", LDGPartitioner)
