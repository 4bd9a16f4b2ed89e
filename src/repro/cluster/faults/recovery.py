"""Recovery strategies after a machine crash.

Two strategies, mirroring what real Gemini/KnightKing deployments do:

- ``restart`` — a standby machine takes the failed machine's place,
  loads the last checkpoint of its subgraph, and replays the supersteps
  executed since. Cluster membership is unchanged; the cost is
  concentrated on the replacement while everyone else waits at the
  barrier.
- ``redistribute`` — the failed machine's subgraph is re-spread across
  the survivors using BPart's combining logic
  (:mod:`repro.partition.combine`): the subgraph is over-split with the
  weighted streaming pass (Eq. 1's two-dimensional indicator), combined
  by the inverse-proportional smallest-|V|/largest-|V| pairing, and the
  resulting chunks are matched to survivors most-loaded ← lightest-chunk
  (the ⤨ pattern of Figure 9 applied across machines). A 2D-balanced
  input partition therefore yields a 2D-balanced post-recovery cluster —
  the property the fault experiments measure.

Both planners are pure and deterministic: the same inputs and seed give
byte-identical outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.graph.subgraph import extract_subgraph
from repro.partition.combine import combine_assignment, pair_by_vertex_count
from repro.utils.rng import derive_rng

__all__ = ["RecoveryOutcome", "plan_restart", "plan_redistribute"]


@dataclass(frozen=True)
class RecoveryOutcome:
    """Where the failed machine's state goes.

    Attributes
    ----------
    strategy:       ``"restart"`` or ``"redistribute"``.
    failed_machine: the crashed machine id.
    share_v:        length-``M`` fractions of the failed machine's
                    *vertices* each machine takes over (sums to 1 when
                    the failed machine hosted anything).
    share_e:        same for the failed machine's hosted arcs.
    hosting:        post-recovery vertex → machine vector (``None`` for
                    ``restart``, which keeps the hosting unchanged).
    """

    strategy: str
    failed_machine: int
    share_v: np.ndarray
    share_e: np.ndarray
    hosting: np.ndarray | None = None


def plan_restart(num_machines: int, failed: int) -> RecoveryOutcome:
    """A replacement machine replays the failed machine's full share."""
    share = np.zeros(num_machines)
    share[failed] = 1.0
    return RecoveryOutcome(
        strategy="restart",
        failed_machine=int(failed),
        share_v=share,
        share_e=share.copy(),
    )


def plan_redistribute(
    graph: CSRGraph,
    hosting: np.ndarray,
    num_machines: int,
    failed: int,
    alive: np.ndarray,
    *,
    seed: int = 0,
) -> RecoveryOutcome:
    """Re-spread the failed machine's subgraph across survivors.

    Parameters
    ----------
    graph:       the full job graph.
    hosting:     current vertex → machine vector (*physical* hosting,
                 which may already differ from the logical partition
                 after earlier recoveries).
    failed:      the machine that just crashed.
    alive:       boolean machine mask *before* marking ``failed`` dead.
    seed:        drives the over-splitting streaming pass; derived per
                 (seed, failed) so repeated crashes stay independent but
                 reproducible.

    The failed subgraph is over-split into two pieces per survivor
    (BPart's base of 2) before combining.
    """
    hosting = np.asarray(hosting)
    survivors = np.flatnonzero(alive & (np.arange(num_machines) != failed))
    if survivors.size == 0:
        raise SimulationError("no survivors to redistribute to")
    members = hosting == failed
    new_hosting = hosting.copy()
    share_v = np.zeros(num_machines)
    share_e = np.zeros(num_machines)
    n_failed = int(members.sum())
    if n_failed == 0:
        return RecoveryOutcome(
            strategy="redistribute",
            failed_machine=int(failed),
            share_v=share_v,
            share_e=share_e,
            hosting=new_hosting,
        )

    sub = extract_subgraph(graph, members)
    k = int(survivors.size)
    pieces = min(2 * k, n_failed)
    if pieces <= 1:
        piece_parts = np.zeros(n_failed, dtype=np.int32)
        cur = 1
    else:
        # BPart's phase-1 weighted streaming pass: pieces come out with
        # inversely proportional |V| / |E| distributions, which is what
        # makes the pairing below balance both dimensions at once.
        from repro.partition.bpart import weighted_stream_partition

        piece_parts = np.asarray(
            weighted_stream_partition(
                sub.graph,
                pieces,
                rng=int(derive_rng(seed, failed).integers(0, 2**31 - 1)),
            ),
            dtype=np.int32,
        )
        cur = pieces
    # Combine rounds (Figure 9's smallest-|V| ↔ largest-|V| pairing)
    # until at most one chunk per survivor remains.
    while cur > k:
        plan = pair_by_vertex_count(np.bincount(piece_parts, minlength=cur))
        piece_parts = combine_assignment(piece_parts, plan)
        cur = plan.num_merged

    degrees = graph.degrees
    chunk_v = np.bincount(piece_parts, minlength=cur).astype(np.float64)
    chunk_e = np.bincount(
        piece_parts, weights=degrees[sub.global_ids].astype(np.float64), minlength=cur
    )
    # Survivor loads before taking anything over; the ⤨ assignment pairs
    # the currently lightest survivor with the heaviest chunk.
    surv_load = np.bincount(
        hosting[hosting != failed], minlength=num_machines
    ).astype(np.float64)[survivors]
    surv_order = survivors[np.argsort(surv_load, kind="stable")]
    chunk_order = np.argsort(-chunk_v, kind="stable")

    total_v = float(chunk_v.sum())
    total_e = float(chunk_e.sum())
    for rank, chunk in enumerate(chunk_order):
        target = int(surv_order[rank % surv_order.size])
        new_hosting[sub.global_ids[piece_parts == chunk]] = target
        share_v[target] += chunk_v[chunk] / total_v if total_v else 0.0
        share_e[target] += chunk_e[chunk] / total_e if total_e else 0.0
    if total_e == 0.0:
        # An edgeless failed subgraph: route replay/restore shares by
        # vertices so they still sum to 1.
        share_e = share_v.copy()
    return RecoveryOutcome(
        strategy="redistribute",
        failed_machine=int(failed),
        share_v=share_v,
        share_e=share_e,
        hosting=new_hosting,
    )
