"""Spinner-style partitioner via balanced label propagation.

Spinner (Martella et al., ICDE 2017 — the paper's reference [38])
partitions by label propagation over ``k`` partition labels: vertices
start with random labels and iteratively adopt the label most common
among their neighbours, *scaled by the label's remaining capacity*, so
the propagation converges to a balanced edge-cut partition without ever
streaming. It is the practical "in-system" repartitioner used by
Giraph-family deployments.

Score of label ``p`` for vertex ``v`` (Spinner's formulation, unweighted):

    score(v, p) = |N(v) ∩ V_p| / |N(v)| + c_bal · (1 − load_p / capacity)

Like the original, this implementation updates synchronously with a
keep-current-on-tie rule and stops when the fraction of vertices that
changed label drops below a threshold.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.assignment import PartitionAssignment
from repro.partition.base import Partitioner, register_partitioner
from repro.utils.rng import as_rng
from repro.utils.validation import check_fraction, check_nonnegative, check_positive

__all__ = ["SpinnerPartitioner"]


class SpinnerPartitioner(Partitioner):
    """Balanced label-propagation partitioning.

    Parameters
    ----------
    iterations:     maximum LPA rounds.
    balance_weight: c_bal — strength of the capacity penalty.
    slack:          capacity factor ν over the vertex dimension.
    stop_fraction:  convergence threshold on the per-round fraction of
                    relabelled vertices.
    """

    name = "spinner"

    def __init__(
        self,
        *,
        iterations: int = 40,
        balance_weight: float = 1.0,
        slack: float = 1.05,
        stop_fraction: float = 0.002,
        seed: int = 0,
    ) -> None:
        check_positive("iterations", iterations)
        check_nonnegative("balance_weight", balance_weight)
        check_positive("slack", slack)
        check_fraction("stop_fraction", stop_fraction)
        self._iterations = int(iterations)
        self._c_bal = float(balance_weight)
        self._slack = float(slack)
        self._stop = float(stop_fraction)
        self._seed = seed

    def _partition(
        self, graph: CSRGraph, num_parts: int
    ) -> tuple[PartitionAssignment, dict[str, Any]]:
        rng = as_rng(self._seed)
        n = graph.num_vertices
        k = num_parts
        parts = rng.integers(0, k, size=n).astype(np.int32)
        capacity = self._slack * n / k
        indptr, indices = graph.indptr, graph.indices
        degrees = np.maximum(graph.degrees, 1).astype(np.float64)
        src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)

        rounds_run = 0
        with self._phase("propagate"):
            for _ in range(self._iterations):
                rounds_run += 1
                loads = np.bincount(parts, minlength=k).astype(np.float64)
                # Neighbour-label histogram per vertex, vectorised: count
                # (vertex, label) pairs over all arcs.
                flat = src * k + parts[indices]
                pair_counts = np.bincount(flat, minlength=n * k).reshape(n, k)
                affinity = pair_counts / degrees[:, None]
                balance = self._c_bal * (1.0 - loads / capacity)
                scores = affinity + balance[None, :]
                # Keep-current-on-tie: nudge the current label's score up
                # by an epsilon so argmax prefers it, damping oscillation.
                rows = np.arange(n)
                scores[rows, parts] += 1e-9
                desired = np.argmax(scores, axis=1).astype(np.int32)
                movers = desired != parts
                if not movers.any():
                    break
                # Migration quotas (Spinner's key mechanism): synchronous
                # moves would stampede into the currently-lightest label,
                # so each destination only admits as many migrants as its
                # remaining capacity, highest score-gain first.
                gain = scores[rows, desired] - scores[rows, parts]
                changed_count = 0
                mover_ids = np.nonzero(movers)[0]
                for p in range(k):
                    into_p = mover_ids[desired[mover_ids] == p]
                    if into_p.size == 0:
                        continue
                    quota = int(max(capacity - loads[p], 0))
                    if quota == 0:
                        continue
                    if into_p.size > quota:
                        take = into_p[np.argsort(-gain[into_p], kind="stable")[:quota]]
                    else:
                        take = into_p
                    loads[p] += take.size
                    # releases are accounted next round (loads is
                    # recomputed from scratch at the top of the loop)
                    parts[take] = p
                    changed_count += take.size
                if changed_count / n < self._stop:
                    break

        return (
            PartitionAssignment(graph, parts, num_parts),
            {"rounds": rounds_run},
        )


register_partitioner("spinner", SpinnerPartitioner)
