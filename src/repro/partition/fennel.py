"""Fennel streaming partitioner (Tsourakakis et al., WSDM 2014; §2.2).

For each streamed vertex ``v``, Fennel scores every part

    S(v, G_i) = |V_i ∩ N(v)| − α·γ·|V_i|^{γ−1}

and assigns ``v`` to the argmax. The first term rewards co-locating
``v`` with its already-placed neighbours (fewer edge cuts); the second
penalises large parts — but only in the *vertex* dimension, which is
exactly why the paper's Figure 3/10 shows Fennel with balanced ``|V_i|``
and wildly imbalanced ``|E_i|`` on scale-free graphs.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition._streamcore import GAMMA, default_alpha, stream_partition
from repro.partition.assignment import PartitionAssignment
from repro.partition.base import Partitioner, register_partitioner
from repro.partition.kernels import resolve_kernel_name
from repro.utils.validation import check_positive

__all__ = ["FennelPartitioner"]


class FennelPartitioner(Partitioner):
    """Score-based streaming with vertex-count balance.

    Parameters
    ----------
    order:
        Vertex stream order (default ``natural``; ``random`` is Fennel's
        robust default, exposed for ablations).
    passes:
        Re-streaming passes (ReFennel); extra passes tighten the cut at
        proportional extra cost.
    kernel:
        Inner-loop backend (:mod:`repro.partition.kernels`); all
        backends are bit-exact, so this knob trades throughput only.
    jobs:
        Worker processes for the parallel backend (explicit value beats
        ``$REPRO_JOBS`` beats 1; ``<= 0`` means all available cores).
        With ``kernel="auto"`` and ``jobs > 1`` the ``parallel`` backend
        is engaged; assignments stay bit-identical at every jobs value.

    The score constants are the original paper's: ``α = √k · m / n^{3/2}``
    (:func:`~repro.partition._streamcore.default_alpha`), γ = 1.5 and the
    capacity factor ν = 1.1 (``stream_partition``'s defaults).
    """

    name = "fennel"
    libraries = ("fennel",)

    def __init__(
        self,
        *,
        order: str = "natural",
        seed: int | None = None,
        passes: int = 1,
        kernel: str = "auto",
        jobs: int | None = None,
    ) -> None:
        check_positive("passes", passes)
        self._order = order
        self._seed = seed
        self._passes = int(passes)
        self._jobs = jobs
        # Resolve eagerly: validates the name and pins "auto" to the
        # concrete backend so metadata reports what actually ran.
        self._kernel = resolve_kernel_name(kernel, jobs)

    def _partition(
        self, graph: CSRGraph, num_parts: int
    ) -> tuple[PartitionAssignment, dict[str, Any]]:
        alpha = default_alpha(graph, num_parts)
        with self._phase("stream"):
            parts = stream_partition(
                graph,
                num_parts,
                vertex_weights=np.ones(graph.num_vertices),
                alpha=alpha,
                order=self._order,
                rng=self._seed,
                passes=self._passes,
                kernel=self._kernel,
                jobs=self._jobs,
            )
        return (
            PartitionAssignment(graph, parts, num_parts),
            {"alpha": alpha, "gamma": GAMMA, "order": self._order, "kernel": self._kernel},
        )


register_partitioner("fennel", FennelPartitioner)
