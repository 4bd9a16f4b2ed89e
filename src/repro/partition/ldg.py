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
from repro.partition._streamcore import SLACK
from repro.partition.assignment import PartitionAssignment
from repro.partition.base import Partitioner, register_partitioner
from repro.partition.kernels.buffered import ldg_buffered

__all__ = ["LDGPartitioner"]


class LDGPartitioner(Partitioner):
    """Linear deterministic greedy streaming assignment, in vertex-id
    order with Fennel's capacity factor ν."""

    name = "ldg"
    libraries = ("sample",)  # gather_rows

    def __init__(self, *, seed: int | None = None) -> None:
        self._seed = seed

    def _partition(
        self, graph: CSRGraph, num_parts: int
    ) -> tuple[PartitionAssignment, dict[str, Any]]:
        n = graph.num_vertices
        k = num_parts
        parts = np.full(n, -1, dtype=np.int32)
        loads = np.zeros(k, dtype=np.float64)
        capacity = SLACK * n / k

        with self._phase("stream"):
            ldg_buffered(graph, np.arange(n, dtype=np.int64), parts, loads,
                         capacity=float(capacity))
        if telemetry.enabled():
            reg = telemetry.active()
            reg.counter("partition.stream.vertices", kernel="buffered").inc(n)
            reg.gauge("partition.stream.saturated_parts").set(
                int((loads >= capacity).sum())
            )
        return (
            PartitionAssignment(graph, parts, num_parts),
            {"order": "natural", "kernel": "buffered"},
        )


register_partitioner("ldg", LDGPartitioner)
