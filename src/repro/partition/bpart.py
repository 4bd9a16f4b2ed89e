"""BPart — the paper's two-dimensional balanced partitioner (§3).

Two phases per layer:

1. **Partitioning** (§3.2): a Fennel-style streaming pass whose balance
   penalty uses the weighted indicator of Eq. 1,

       W_i = c·|V_i| + (1 − c)·|E_i| / d̄,

   plugged into the score of Eq. 2,

       S(v, G_i) = |V_i ∩ N(v)| − α·γ·W_i^{γ−1}.

   Because every part converges to equal ``W_i``, a part with fewer
   vertices must hold more edges — the distributions come out *inversely
   proportional* (Figure 8), which is exactly what makes them
   combinable.

2. **Combining** (§3.3): over-split into ``2^ℓ · N_r`` pieces at layer
   ``ℓ``, pair smallest-|V| with largest-|V| for ``ℓ`` rounds, finalise
   the merged subgraphs that hit both balance thresholds, recurse on the
   rest (delegated to :func:`repro.partition.combine.multi_layer_combine`).

The standalone :func:`weighted_stream_partition` exposes phase 1 alone —
Figure 8 plots its output at 64 pieces.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition._streamcore import default_alpha, stream_partition
from repro.partition.assignment import PartitionAssignment
from repro.partition.base import Partitioner, register_partitioner
from repro.partition.combine import multi_layer_combine
from repro.partition.kernels import resolve_kernel_name
from repro.utils.validation import check_positive, check_probability

__all__ = ["BPartPartitioner", "weighted_stream_partition", "bpart_vertex_weights"]


def bpart_vertex_weights(graph: CSRGraph, c: float) -> np.ndarray:
    """Per-vertex load increments realising Eq. 1.

    Assigning vertex ``v`` to part ``i`` adds 1 to ``|V_i|`` and
    ``deg(v)`` to ``|E_i|``, hence adds ``c + (1 − c)·deg(v)/d̄`` to
    ``W_i``. The weights sum to ``n`` (since Σdeg = n·d̄), so the
    capacity bound matches Fennel's.
    """
    d_bar = graph.avg_degree
    if d_bar == 0:
        return np.ones(graph.num_vertices)
    return c + (1.0 - c) * graph.degrees / d_bar


def weighted_stream_partition(
    graph: CSRGraph,
    num_pieces: int,
    *,
    c: float = 0.5,
    order: str = "natural",
    rng=None,
    passes: int = 1,
    kernel: str = "auto",
    jobs: int | None = None,
) -> np.ndarray:
    """Phase-1 streaming pass with the weighted indicator (Eq. 1 + 2),
    scored with Fennel's constants (``default_alpha``, γ and ν)."""
    check_probability("c", c)
    return stream_partition(
        graph,
        num_pieces,
        vertex_weights=bpart_vertex_weights(graph, c),
        alpha=default_alpha(graph, num_pieces),
        order=order,
        rng=rng,
        passes=passes,
        kernel=kernel,
        jobs=jobs,
    )


class BPartPartitioner(Partitioner):
    """The full two-phase BPart scheme.

    Parameters
    ----------
    c:
        Weighting factor of Eq. 1 between vertex and edge balance.
        ``c = 1`` degenerates to Fennel's vertex indicator, ``c = 0`` to
        a pure edge indicator; the paper's empirical default is ½.
    max_layers:
        Combination layer cap (the paper observes 2–3 layers suffice).
    base_rounds:
        Combine rounds in the first layer (default 2, i.e. 4N pieces;
        see :func:`repro.partition.combine.multi_layer_combine`).
    order:
        Vertex stream order, shared with Fennel.
    passes:
        Re-streaming passes per phase-1 invocation (ReFennel-style).
    kernel:
        Streaming-loop backend (:mod:`repro.partition.kernels`). BPart
        streams the graph ``2^ℓ·N`` pieces × layers × passes times, so
        the backend choice multiplies across the whole combine schedule;
        all backends are bit-exact, so results are unchanged.
    jobs:
        Worker processes for the parallel streaming backend (explicit
        value beats ``$REPRO_JOBS`` beats 1). With ``kernel="auto"`` and
        ``jobs > 1`` every phase-1 stream fans its chunk scoring over
        workers; assignments stay bit-identical at every jobs value.

    The streaming score uses Fennel's constants, and the combining phase
    the paper's over-split base of 2 and balance threshold ε = 0.1
    (:func:`~repro.partition.combine.multi_layer_combine`).
    """

    name = "bpart"
    libraries = ("fennel", "sample")  # the stream, and extract_subgraph's induce_rows

    def __init__(
        self,
        *,
        c: float = 0.5,
        max_layers: int = 3,
        base_rounds: int = 2,
        order: str = "natural",
        seed: int | None = None,
        passes: int = 1,
        kernel: str = "auto",
        jobs: int | None = None,
    ) -> None:
        check_probability("c", c)
        check_positive("passes", passes)
        self._passes = int(passes)
        check_positive("max_layers", max_layers)
        check_positive("base_rounds", base_rounds)
        self._base_rounds = int(base_rounds)
        self._c = c
        self._max_layers = int(max_layers)
        self._order = order
        self._seed = seed
        self._jobs = jobs
        self._kernel = resolve_kernel_name(kernel, jobs)

    def _partition(
        self, graph: CSRGraph, num_parts: int
    ) -> tuple[PartitionAssignment, dict[str, Any]]:
        def phase1(sub: CSRGraph, pieces: int) -> np.ndarray:
            return weighted_stream_partition(
                sub,
                pieces,
                c=self._c,
                order=self._order,
                rng=self._seed,
                passes=self._passes,
                kernel=self._kernel,
                jobs=self._jobs,
            )

        parts, traces = multi_layer_combine(
            graph,
            phase1,
            num_parts,
            base_rounds=self._base_rounds,
            max_layers=self._max_layers,
        )
        metadata = {
            "c": self._c,
            "kernel": self._kernel,
            "layers": [
                {
                    "layer": t.layer,
                    "pieces": t.num_pieces,
                    "finalized": list(t.finalized),
                    "vertex_bias": t.vertex_bias_after,
                    "edge_bias": t.edge_bias_after,
                }
                for t in traces
            ],
        }
        return PartitionAssignment(graph, parts, num_parts), metadata


register_partitioner("bpart", BPartPartitioner)
