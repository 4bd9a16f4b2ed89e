"""node2vec second-order walk (Grover & Leskovec, KDD 2016).

Transition from ``cur`` given the previous vertex ``prev`` weights each
neighbour ``y`` of ``cur``:

- ``1/p`` if ``y == prev``          (return),
- ``1``   if ``y`` adjacent to prev (stay close),
- ``1/q`` otherwise                 (explore).

KnightKing's key trick — which made billion-edge node2vec feasible — is
*rejection sampling*: propose a uniform neighbour and accept with
probability ``w(y)/w_max``; only the accepted proposal pays the
adjacency check. We reproduce exactly that, looping only over rejection
*rounds* (geometric tail, a handful of rounds in practice), never over
walkers: each round's adjacency checks are one batched
:func:`arcs_exist` call — on an in-RAM graph one C binary search of
each ``(prev, y)`` query's sorted row.
"""

from __future__ import annotations

import numpy as np

from repro.engines.knightking.apps.base import WalkApp
from repro.engines.knightking.transition import arcs_exist, uniform_neighbor
from repro.graph.csr import CSRGraph
from repro.utils.validation import check_positive

__all__ = ["Node2Vec"]

_MAX_REJECTION_ROUNDS = 64


class Node2Vec(WalkApp):
    """Second-order (p, q) walk via rejection sampling.

    Parameters
    ----------
    p: return parameter (paper's experiments use 2).
    q: in-out parameter (paper's experiments use 0.5).
    """

    name = "node2vec"

    def __init__(self, p: float = 2.0, q: float = 0.5) -> None:
        check_positive("p", p)
        check_positive("q", q)
        self.p = float(p)
        self.q = float(q)

    def advance(
        self,
        graph: CSRGraph,
        positions: np.ndarray,
        previous: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        targets, dead = uniform_neighbor(graph, positions, rng)
        first = previous < 0
        # Second-order walkers re-sample until acceptance.
        w_return = 1.0 / self.p
        w_common = 1.0
        w_far = 1.0 / self.q
        w_max = max(w_return, w_common, w_far)
        pending = ~first & ~dead
        rounds = 0
        while pending.any():
            rounds += 1
            if rounds > _MAX_REJECTION_ROUNDS:
                # Pathological (p, q) make acceptance arbitrarily rare;
                # accept the current proposal rather than spin forever.
                break
            idx = np.nonzero(pending)[0]
            y = targets[idx]
            prev = previous[idx]
            w = np.full(idx.size, w_far)
            common = arcs_exist(graph, prev, y)
            w[common] = w_common
            w[y == prev] = w_return
            accept = rng.random(idx.size) < (w / w_max)
            pending[idx[accept]] = False
            rejected = idx[~accept]
            if rejected.size:
                new_t, new_dead = uniform_neighbor(graph, positions[rejected], rng)
                targets[rejected] = new_t
                # Dead ends cannot occur here (the vertex had a neighbour
                # on the first draw), but keep the guard for safety.
                if new_dead.any():  # pragma: no cover - unreachable by construction
                    dead[rejected[new_dead]] = True
                    pending[rejected[new_dead]] = False
        return targets, dead
