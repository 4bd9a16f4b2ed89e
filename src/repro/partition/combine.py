"""Combining phase of BPart (§3.3, Figure 9).

The partitioning phase over-splits the graph into many small pieces
whose ``|V_i|`` and ``|E_i|`` distributions are *inversely proportional*
(the weighted indicator makes small-vertex pieces edge-heavy). This
module implements:

- :func:`pair_by_vertex_count` — one combination round: sort pieces by
  ``|V_i|`` and merge the fewest-vertices piece (most edges) with the
  most-vertices piece (fewest edges), second-fewest with second-most,
  and so on (the ⤨ pattern of Figure 9).
- :func:`combine_assignment` — apply a pairing to an assignment.
- :func:`multi_layer_combine` — the full driver: at layer ``ℓ`` the
  remaining graph is split into ``2^ℓ · N_r`` pieces and combined for
  ``ℓ`` rounds; combined subgraphs within the balance thresholds in both
  dimensions are finalised, the rest re-enter the next layer. The paper
  reports 2–3 layers suffice; ``max_layers`` caps the loop and the final
  layer finalises unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import telemetry
from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.graph.subgraph import extract_subgraph
from repro.partition.metrics import bias
from repro.utils.validation import check_positive

__all__ = ["pair_by_vertex_count", "combine_assignment", "multi_layer_combine", "CombinePlan", "LayerTrace"]

#: ε of the combining phase: the largest relative deviation from the
#: per-part targets at which a merged subgraph is final.
BALANCE_THRESHOLD = 0.1


@dataclass(frozen=True)
class CombinePlan:
    """One round's piece → merged-part mapping (``new_id[piece]``)."""

    mapping: np.ndarray
    num_merged: int


@dataclass
class LayerTrace:
    """Diagnostics for one layer of :func:`multi_layer_combine`."""

    layer: int
    num_pieces: int
    num_targets: int
    finalized: list[int] = field(default_factory=list)
    vertex_bias_after: float = 0.0
    edge_bias_after: float = 0.0


def pair_by_vertex_count(vertex_counts: np.ndarray) -> CombinePlan:
    """Pair pieces smallest-|V| with largest-|V| (one combine round).

    With an even number of pieces ``2t`` this produces ``t`` merged
    parts. An odd piece count leaves the median piece unpaired as its
    own merged part (supports non-power-of-two targets).
    """
    vc = np.asarray(vertex_counts)
    p = vc.size
    if p == 0:
        raise PartitionError("cannot combine zero pieces")
    order = np.argsort(vc, kind="stable")
    t = p // 2
    mapping = np.empty(p, dtype=np.int32)
    # order[i] (i-th fewest vertices) merges with order[p-1-i].
    for i in range(t):
        mapping[order[i]] = i
        mapping[order[p - 1 - i]] = i
    if p % 2 == 1:
        mapping[order[t]] = t
    return CombinePlan(mapping=mapping, num_merged=t + (p % 2))


def combine_assignment(parts: np.ndarray, plan: CombinePlan) -> np.ndarray:
    """Relabel a piece-id vector through one combine round."""
    return plan.mapping[parts]


def multi_layer_combine(
    graph: CSRGraph,
    partition_fn: Callable[[CSRGraph, int], np.ndarray],
    num_parts: int,
    *,
    base_rounds: int = 2,
    max_layers: int = 3,
) -> tuple[np.ndarray, list[LayerTrace]]:
    """Run the full multi-layer combination of Figure 9.

    Parameters
    ----------
    graph:
        The original graph.
    partition_fn:
        ``(subgraph, num_pieces) → piece ids`` — BPart passes its
        weighted streaming pass here. Called once per layer on the
        induced subgraph of the not-yet-finalised vertices.
    num_parts:
        Target part count ``N``.
    base_rounds:
        Combine rounds in the first layer; layer ℓ runs
        ``base_rounds + ℓ − 1`` rounds over ``2^rounds · N_r`` pieces
        (each round pairs two pieces into one, the paper's base of 2).
        The paper's Figure 9 shows 1 round (2N pieces) in layer 1;
        empirically a single min–max pairing round cannot absorb a
        hub-dominated outlier piece, while 2 rounds (4N pieces) reaches
        the paper's < 0.1 bias in one layer, consistent with its "two or
        three rounds of combinations" remark. Default 2.
    max_layers:
        Layer cap; the last layer finalises every remaining subgraph.

    A combined subgraph is *final* when both ``|V_i|`` and ``|E_i|`` are
    within ``(1 ± ε)`` of the global targets ``|V|/N`` and ``|E|/N``, with
    the paper's ε = :data:`BALANCE_THRESHOLD`.

    Returns
    -------
    (parts, traces):
        Final assignment into ``num_parts`` parts and per-layer
        diagnostics.
    """
    check_positive("num_parts", num_parts)
    n = graph.num_vertices
    if num_parts > n:
        raise PartitionError(f"cannot split {n} vertices into {num_parts} parts")
    degrees = graph.degrees
    v_target = n / num_parts
    e_target = graph.num_edges / num_parts

    final = np.full(n, -1, dtype=np.int32)
    next_id = 0
    remaining = np.ones(n, dtype=bool)
    traces: list[LayerTrace] = []
    sub = None  # induced subgraph of `remaining`; dropped whenever it shrinks

    for layer in range(1, max_layers + 1):
        n_remaining_parts = num_parts - next_id
        if n_remaining_parts <= 0:
            break
        rem_count = int(remaining.sum())
        last = layer == max_layers or n_remaining_parts == 1

        if sub is None:
            with telemetry.active().span("partition.combine.extract", layer=layer):
                sub = extract_subgraph(graph, remaining)
        rounds = base_rounds + layer - 1
        pieces = (2**rounds) * n_remaining_parts
        # Degenerate small remainders: never ask for more pieces than
        # vertices; shrink the round count to keep pairing meaningful.
        while rounds > 0 and pieces > rem_count:
            rounds -= 1
            pieces = (2**rounds) * n_remaining_parts
        pieces = min(pieces, rem_count)

        with telemetry.active().span("partition.combine.stream", layer=layer, pieces=pieces,
                                     vertices=rem_count):
            piece_parts = np.asarray(partition_fn(sub.graph, pieces), dtype=np.int32)
        if piece_parts.size != rem_count:
            raise PartitionError("partition_fn returned wrong-length assignment")

        cur_k = pieces
        # Merge rounds: each halves the piece count back toward N_r using
        # the inverse-proportionality pairing.
        global_vertex_ids = sub.global_ids
        for _ in range(rounds):
            vc = np.bincount(piece_parts, minlength=cur_k)
            plan = pair_by_vertex_count(vc)
            piece_parts = combine_assignment(piece_parts, plan)
            cur_k = plan.num_merged

        vcnt = np.bincount(piece_parts, minlength=cur_k).astype(np.float64)
        ecnt = np.bincount(
            piece_parts, weights=degrees[global_vertex_ids].astype(np.float64), minlength=cur_k
        )
        trace = LayerTrace(
            layer=layer,
            num_pieces=pieces,
            num_targets=cur_k,
            vertex_bias_after=bias(vcnt) if vcnt.size else 0.0,
            edge_bias_after=bias(ecnt) if ecnt.size else 0.0,
        )

        eps = BALANCE_THRESHOLD
        dev_v = np.abs(vcnt - v_target) / v_target
        # Edgeless graphs have e_target = 0: the edge dimension is then
        # trivially balanced.
        dev_e = np.abs(ecnt - e_target) / e_target if e_target > 0 else np.zeros(cur_k)
        dev = np.maximum(dev_v, dev_e)
        if last:
            ok = np.ones(cur_k, dtype=bool)
        else:
            # Finalise best-balanced parts first, but never let the
            # remainder drift: each finalised part removes its share from
            # the pool the later layers must still split into the
            # remaining slots, so if we greedily keep parts that all sit
            # slightly below target, the leftover slots are doomed to
            # overshoot. Accept a part only while the remainder's
            # per-slot mean stays within ε/2 of the global target in
            # both dimensions.
            ok = np.zeros(cur_k, dtype=bool)
            rem_v, rem_e, rem_k = float(vcnt.sum()), float(ecnt.sum()), cur_k
            for p in np.argsort(dev, kind="stable"):
                if dev[p] > eps:
                    break
                nv, ne, nk = rem_v - vcnt[p], rem_e - ecnt[p], rem_k - 1
                if nk > 0 and (
                    abs(nv / nk - v_target) > 0.5 * eps * v_target
                    or abs(ne / nk - e_target) > 0.5 * eps * e_target
                ):
                    continue  # a differently-sided part may still fit
                ok[p] = True
                rem_v, rem_e, rem_k = nv, ne, nk
            if 0 < int((~ok).sum()) < 2:
                # Exactly one part would remain: a later layer cannot
                # re-balance a single subgraph (no pairing freedom), so
                # hold back the worst finalised part too.
                passing = np.nonzero(ok)[0]
                ok[passing[np.argmax(dev[passing])]] = False
        for p in range(cur_k):
            if ok[p]:
                members = global_vertex_ids[piece_parts == p]
                # Guard against overshoot if a layer produced more merged
                # parts than target slots remain (only possible when the
                # remainder was too small to pair down fully): dump
                # extras into the last slot.
                part_id = min(next_id, num_parts - 1)
                final[members] = part_id
                remaining[members] = False
                trace.finalized.append(part_id)
                if next_id < num_parts:
                    next_id += 1
        if telemetry.enabled():
            reg = telemetry.active()
            reg.counter("partition.combine.layers").inc()
            reg.counter("partition.combine.pieces").inc(pieces)
            reg.gauge("partition.combine.vertex_bias", layer=layer).set(
                trace.vertex_bias_after
            )
            reg.gauge("partition.combine.edge_bias", layer=layer).set(
                trace.edge_bias_after
            )
            reg.gauge("partition.combine.finalized", layer=layer).set(len(trace.finalized))
        traces.append(trace)
        if trace.finalized:
            sub = None
        if not remaining.any():
            break

    if remaining.any():  # pragma: no cover - defensive; last layer finalises all
        final[remaining] = num_parts - 1
    return final, traces
