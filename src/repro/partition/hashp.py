"""Hash partitioner (§2.2) — Pregel/Giraph's scheme.

Each vertex goes to ``hash(v) mod k``. Balanced in *both* dimensions in
expectation (each part receives a uniform random vertex sample, so both
``|V_i|`` and ``|E_i|`` concentrate around their means), but the cut is
terrible: a uniformly random endpoint pair lands in different parts with
probability ``(k−1)/k`` — 87.5 % at ``k = 8``, exactly the number the
paper observes (Table 3). This is the paper's Limitation #2.

Uses the splitmix64 integer mix rather than Python's ``hash`` so results
are stable across processes and runs.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.assignment import PartitionAssignment
from repro.partition.base import Partitioner, register_partitioner
from repro.utils.rng import hash_u64

__all__ = ["HashPartitioner"]


class HashPartitioner(Partitioner):
    """Deterministic hashed vertex assignment.

    Parameters
    ----------
    seed:
        Mixed into the hash; two instances with different seeds give
        independent (but individually reproducible) assignments.
    """

    name = "hash"

    def __init__(self, *, seed: int = 0) -> None:
        self._seed = int(seed)

    def _partition(
        self, graph: CSRGraph, num_parts: int
    ) -> tuple[PartitionAssignment, dict[str, Any]]:
        ids = np.arange(graph.num_vertices, dtype=np.uint64)
        parts = (hash_u64(ids, self._seed) % np.uint64(num_parts)).astype(np.int32)
        return PartitionAssignment(graph, parts, num_parts), {"seed": self._seed}


register_partitioner("hash", HashPartitioner)
