"""Linear Deterministic Greedy streaming partitioner.

LDG (Stanton & Kliot, KDD 2012) is the other classic streaming
heuristic: vertex ``v`` goes to the part maximising

    |V_i ∩ N(v)| · (1 − |V_i| / C),      C = ν·n/k

i.e. neighbour overlap scaled by remaining capacity. Not compared in the
paper's evaluation, but it predates Fennel and is included as an extra
baseline for the bias-scatter ablation: like Fennel it balances only the
vertex dimension.

One loop runs it: ``ldg_buffered``, the chunked gather that serves dense
and sharded graphs alike. ``kernels.scalar.ldg_scalar`` is its
executable spec (``tests/partition/test_kernels.py``); the kernel
registry dispatches Fennel's rule only.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro import telemetry
from repro.graph.csr import CSRGraph
from repro.graph.stream import vertex_stream
from repro.partition.assignment import PartitionAssignment
from repro.partition.base import Partitioner, register_partitioner
from repro.partition.kernels.buffered import ldg_buffered
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
    ) -> None:
        check_positive("slack", slack)
        self._slack = slack
        self._order = order
        self._seed = seed

    def _partition(
        self, graph: CSRGraph, num_parts: int
    ) -> tuple[PartitionAssignment, dict[str, Any]]:
        n = graph.num_vertices
        k = num_parts
        parts = np.full(n, -1, dtype=np.int32)
        loads = np.zeros(k, dtype=np.float64)
        capacity = self._slack * n / k
        stream = vertex_stream(graph, self._order, rng=self._seed)

        with self._phase("stream"):
            ldg_buffered(graph, stream, parts, loads, capacity=float(capacity))
        if telemetry.enabled():
            reg = telemetry.active()
            reg.counter("partition.stream.vertices", kernel="buffered").inc(n)
            reg.gauge("partition.stream.saturated_parts").set(
                int((loads >= capacity).sum())
            )
        return (
            PartitionAssignment(graph, parts, num_parts),
            {"order": self._order, "kernel": "buffered"},
        )


register_partitioner("ldg", LDGPartitioner)
