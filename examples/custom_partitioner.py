"""Extending the library: write and register a custom partitioner.

Implements DegreeRoundRobin — assign vertices to parts in descending
degree order, round-robin — which balances edges surprisingly well (it
is the LPT scheduling rule) but ignores cuts entirely. Registering it
makes it available to the whole bench harness by name.

Usage::

    python examples/custom_partitioner.py
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro import graph, partition
from repro.graph.csr import CSRGraph
from repro.partition.assignment import PartitionAssignment
from repro.partition.base import Partitioner, get_partitioner, register_partitioner


class DegreeRoundRobin(Partitioner):
    """Round-robin over vertices sorted by descending degree."""

    name = "degree-rr"

    def _partition(
        self, graph: CSRGraph, num_parts: int
    ) -> tuple[PartitionAssignment, dict[str, Any]]:
        order = np.argsort(-graph.degrees, kind="stable")
        parts = np.empty(graph.num_vertices, dtype=np.int32)
        parts[order] = np.arange(graph.num_vertices) % num_parts
        return PartitionAssignment(graph, parts, num_parts), {}


def main() -> None:
    register_partitioner("degree-rr", DegreeRoundRobin)

    g = graph.twitter_like(scale=0.5, seed=5)
    print(f"graph: {graph.summarize(g)}\n")
    print(f"{'algorithm':10s} {'bias(V)':>8s} {'bias(E)':>8s} {'cut':>7s}")
    for name in ("degree-rr", "hash", "bpart"):
        result = get_partitioner(name).partition(g, 8)
        rep = partition.balance_report(result.assignment)
        print(f"{name:10s} {rep.vertex_bias:8.4f} {rep.edge_bias:8.4f} {rep.cut_ratio:7.4f}")
    print(
        "\ndegree-rr balances both dimensions like Hash (LPT rule) but, "
        "also like Hash,\npays ~(k-1)/k edge cuts — BPart keeps balance "
        "with a visibly lower cut."
    )


if __name__ == "__main__":
    main()
