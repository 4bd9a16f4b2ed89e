"""Reference streaming-assignment kernel: the original NumPy loop.

This is the bit-exact specification the other backends are tested
against. Each vertex issues a handful of small NumPy calls (fancy
index, mask, ``bincount``, ``power``, ``argmax``), so interpreter and
ufunc-dispatch overhead dominates for the small ``k`` the paper uses —
see :mod:`repro.partition.kernels.incremental` for the same semantics
without the per-vertex dispatch cost.
"""

from __future__ import annotations

import numpy as np

from repro.partition.kernels.base import KernelBackend, register_kernel

__all__ = ["BACKEND"]


def fennel_scalar(
    indptr: np.ndarray,
    indices: np.ndarray,
    stream: np.ndarray,
    parts: np.ndarray,
    loads: np.ndarray,
    weights: np.ndarray,
    *,
    alpha: float,
    gamma: float,
    capacity: float,
    passes: int,
) -> None:
    k = loads.shape[0]
    scores = np.empty(k, dtype=np.float64)
    penalty = np.empty(k, dtype=np.float64)
    gamma_minus_1 = gamma - 1.0
    ag = alpha * gamma

    for _pass in range(passes):
        for v in stream:
            current = parts[v]
            if current >= 0:
                # Re-streaming: release v's load before re-scoring.
                loads[current] -= weights[v]
            nbrs = indices[indptr[v] : indptr[v + 1]]
            assigned = parts[nbrs]
            assigned = assigned[assigned >= 0]
            # Score: neighbour overlap minus the balance penalty.
            np.power(loads, gamma_minus_1, out=penalty)
            penalty *= ag
            if assigned.size:
                np.subtract(
                    np.bincount(assigned, minlength=k).astype(np.float64),
                    penalty,
                    out=scores,
                )
            else:
                np.negative(penalty, out=scores)
            # Exclude saturated parts; if every part is saturated (can
            # happen for the final few heavy vertices), fall back to
            # least-loaded.
            over = loads >= capacity
            if over.all():
                choice = int(np.argmin(loads))
            else:
                scores[over] = -np.inf
                choice = int(np.argmax(scores))
            parts[v] = choice
            loads[choice] += weights[v]


def ldg_scalar(
    indptr: np.ndarray,
    indices: np.ndarray,
    stream: np.ndarray,
    parts: np.ndarray,
    loads: np.ndarray,
    *,
    capacity: float,
) -> None:
    k = loads.shape[0]
    scores = np.empty(k, dtype=np.float64)
    for v in stream:
        nbrs = indices[indptr[v] : indptr[v + 1]]
        assigned = parts[nbrs]
        assigned = assigned[assigned >= 0]
        weight = 1.0 - loads / capacity
        if assigned.size:
            np.multiply(
                np.bincount(assigned, minlength=k).astype(np.float64),
                weight,
                out=scores,
            )
        else:
            scores[:] = weight  # empty overlap → fill least loaded
        scores[loads >= capacity] = -np.inf
        if np.isneginf(scores).all():
            choice = int(np.argmin(loads))
        else:
            choice = int(np.argmax(scores))
        parts[v] = choice
        loads[choice] += 1.0


def single_scalar(
    overlap: np.ndarray,
    loads: np.ndarray,
    *,
    alpha: float,
    gamma: float,
    capacity: float,
) -> int:
    penalty = alpha * gamma * loads ** (gamma - 1.0)
    scores = overlap - penalty
    over = loads >= capacity
    if over.all():
        return int(np.argmin(loads))
    scores[over] = -np.inf
    return int(np.argmax(scores))


BACKEND = KernelBackend(name="scalar", fennel=fennel_scalar)
register_kernel(BACKEND)
