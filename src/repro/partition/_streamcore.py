"""Shared streaming-assignment entry point for score-based partitioners.

Fennel and BPart's partitioning phase differ only in their *balance
indicator*: Fennel penalises ``|V_i|`` while BPart penalises the
weighted indicator ``W_i = c·|V_i| + (1−c)·|E_i|/d̄`` (Eq. 1). Both plug
the indicator into the same score (Eq. 2):

    S(v, G_i) = |V_i ∩ N(v)| − α·γ·W_i^{γ−1}

This module implements that contract once, parameterised by a
per-vertex *load increment* array ``w``: Fennel uses ``w ≡ 1``; BPart
uses ``w_v = c + (1−c)·deg(v)/d̄``. In both cases ``Σ w = n``, so the
capacity bound ``ν·n/k`` applies uniformly.

The inner loop itself lives in :mod:`repro.partition.kernels`: the
``kernel=`` knob selects between the reference per-vertex NumPy loop
(``scalar``), the delta-maintained ``incremental`` loop and the compiled
``buffered`` loop (the default) — all
bit-exact with each other, so the knob trades throughput only.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.graph.csr import CSRGraph
from repro.graph.stream import vertex_stream
from repro.parallel import note_fallback, resolve_jobs
from repro.partition.kernels import get_kernel
from repro.utils.validation import check_at_least, check_positive

__all__ = ["stream_partition", "default_alpha", "GAMMA", "SLACK"]

#: Eq. 2's balance exponent γ (Fennel's recommendation, which the paper keeps).
GAMMA = 1.5
#: the capacity factor ν: a part above ν·Σw/k takes no more vertices.
SLACK = 1.1


def default_alpha(graph: CSRGraph, num_parts: int) -> float:
    """Fennel's recommended ``α = √k · m / n^{3/2}`` (γ = 1.5).

    ``m`` counts undirected edges, matching the original formulation.
    An edgeless graph would yield ``α = 0`` — no balance penalty at all,
    so every vertex lands in part 0 until the capacity cap kicks in.
    Substituting ``m = 1`` keeps the penalty positive, and with no
    overlap signal a positive penalty alone is a round-robin: each
    vertex goes to the (first) least-loaded part.
    """
    n = max(graph.num_vertices, 1)
    m = max(graph.num_undirected_edges, 1)
    return float(np.sqrt(num_parts) * m / n**1.5)


def stream_partition(
    graph: CSRGraph,
    num_parts: int,
    *,
    vertex_weights: np.ndarray,
    alpha: float,
    gamma: float = GAMMA,
    slack: float = SLACK,
    order: str = "natural",
    rng=None,
    passes: int = 1,
    kernel: str = "auto",
    jobs: int | None = None,
) -> np.ndarray:
    """Streaming assignment; returns the part-id vector.

    Parameters
    ----------
    vertex_weights:
        Load increment of each vertex toward its part's balance
        indicator. Must sum to ≈ ``n`` for the capacity bound to match
        the paper's setting.
    alpha, gamma:
        Score constants of Eq. 2; ``gamma < 1`` (or NaN) is a
        :class:`~repro.errors.ConfigurationError`.
    slack:
        Capacity factor ν: a part whose indicator already exceeds
        ``ν · Σw / k`` is excluded from the argmax (Fennel's standard
        load cap, which guarantees no part grows unboundedly).
    order, rng:
        Stream order (see :func:`repro.graph.stream.vertex_stream`).
    passes:
        Re-streaming passes (Nishimura & Ugander, KDD 2013). Pass 1 is
        the classic online stream; each further pass revisits the stream
        with the full previous assignment visible — a vertex is pulled
        out of its part (its load released) and re-scored against every
        neighbour, which monotonically tightens the cut.
    kernel:
        Inner-loop backend (see :mod:`repro.partition.kernels`). All
        backends produce identical assignments; ``auto`` picks the
        fastest one available.
    jobs:
        Worker processes for the ``parallel`` backend (explicit value
        beats ``$REPRO_JOBS`` beats 1). With ``jobs > 1`` and
        ``kernel="auto"`` the parallel backend is engaged; an explicit
        non-parallel kernel choice is respected and runs in-process.
        Assignments are bit-identical at every jobs value.
    """
    check_positive("num_parts", num_parts)
    check_at_least("gamma", gamma, 1.0)
    n = graph.num_vertices
    k = int(num_parts)
    parts = np.full(n, -1, dtype=np.int32)
    if n == 0:
        return parts
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    backend = get_kernel(kernel)
    eff_jobs = resolve_jobs(jobs)
    if eff_jobs > 1 and (kernel or "auto").lower() == "auto":
        backend = get_kernel("parallel")
    elif backend.name == "parallel" and eff_jobs <= 1:
        # An explicit kernel="parallel" with one effective worker would
        # label telemetry "parallel" and enter the multiprocessing path
        # just to degrade inside it silently. Degrade here instead, to
        # the in-process buffered kernel (bit-exact), and tick the
        # fallback counter so the degradation is observable.
        note_fallback("kernel.jobs")
        backend = get_kernel("buffered")
    # Sharded graphs expose no global indices array: every kernel but the
    # parallel one routes to the buffered kernel, which streams their shards
    # (all backends are bit-exact, so the routing is invisible in the output).
    dense = isinstance(graph, CSRGraph)
    effective = backend.name if backend.name == "parallel" or dense else "buffered"
    w = np.ascontiguousarray(vertex_weights, dtype=np.float64)
    loads = np.zeros(k, dtype=np.float64)
    capacity = slack * w.sum() / k
    stream = vertex_stream(graph, order, rng=rng)
    args = (graph.indptr if dense else None, graph.indices if dense else None,
            stream, parts, loads, w)
    knobs = dict(alpha=float(alpha), gamma=float(gamma), capacity=float(capacity),
                 passes=int(passes))
    # `with`, so a kernel that raises still closes its span (off: a no-op context)
    reg = telemetry.active()
    with reg.span("partition.stream", kernel=effective):
        if backend.name == "parallel":
            from repro.partition.kernels.parallel_backend import fennel_parallel

            fennel_parallel(*args, **knobs, graph=graph, jobs=eff_jobs)
        elif effective == "buffered":
            get_kernel("buffered").fennel(*args, **knobs, graph=graph)
        else:
            backend.fennel(*args, **knobs)
    if telemetry.enabled():
        # Aggregates only, recorded after the kernel: the per-vertex hot
        # loop stays untouched, so disabled-mode cost is one flag read.
        reg.counter("partition.stream.vertices", kernel=effective).inc(n * passes)
        reg.gauge("partition.stream.saturated_parts").set(int((loads >= capacity).sum()))
    return parts
