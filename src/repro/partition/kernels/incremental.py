"""Incremental streaming kernel: O(1)/vertex penalty maintenance.

Same semantics as the ``scalar`` reference, bit-exactly, but the
per-vertex body never touches a ufunc:

- The balance penalty ``α·γ·W_i^{γ−1}`` is a function of part ``i``'s
  load alone, and an assignment changes at most two loads (the released
  part during re-streaming and the chosen part). So the penalty vector
  is *maintained* — only the changed entries are recomputed — instead
  of ``np.power`` over all ``k`` parts every vertex.
- Neighbour-part overlap is accumulated into a preallocated counter by
  delta (increment per assigned neighbour, reset only the touched
  entries afterwards) instead of a fresh ``np.bincount`` plus the two
  allocations of the ``assigned >= 0`` mask.
- Saturation (``load ≥ capacity``) is a monotone function of the load,
  so the excluded-part set is maintained the same way, replacing the
  per-vertex ``loads >= capacity`` scan.

All state lives in plain Python lists: for the paper's small ``k``
(≤ 64 pieces) list indexing beats NumPy scalar indexing by an order of
magnitude, which is where the ≥3× win over ``scalar`` comes from.
Arithmetic is performed in the same order on the same IEEE doubles as
the reference (`float.__pow__` and `np.power` both route to the
platform ``pow``), so assignments are identical, not merely close —
see ``tests/partition/test_kernels.py``.
"""

from __future__ import annotations

import numpy as np

from repro.partition.kernels.base import KernelBackend, pow_like_numpy, register_kernel

__all__ = ["BACKEND"]

_NEG_INF = float("-inf")


def fennel_incremental(
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
    gm1 = gamma - 1.0
    ag = alpha * gamma
    # Python-native mirrors of the hot state (lists index ~10× faster
    # than NumPy scalars from the interpreter).
    indptr_l = indptr.tolist()
    indices_l = indices.tolist()
    weights_l = weights.tolist()
    stream_l = stream.tolist()
    parts_l = parts.tolist()
    loads_l = loads.tolist()
    penalty = [ag * pow_like_numpy(x, gm1) for x in loads_l]
    saturated = [x >= capacity for x in loads_l]
    num_saturated = sum(saturated)
    counts = [0] * k

    for _pass in range(passes):
        for v in stream_l:
            current = parts_l[v]
            if current >= 0:
                # Re-streaming: release v's load before re-scoring.
                released = loads_l[current] - weights_l[v]
                loads_l[current] = released
                penalty[current] = ag * pow_like_numpy(released, gm1)
                if saturated[current] and released < capacity:
                    saturated[current] = False
                    num_saturated -= 1
            touched = []
            for u in indices_l[indptr_l[v] : indptr_l[v + 1]]:
                p = parts_l[u]
                if p >= 0:
                    if counts[p] == 0:
                        touched.append(p)
                    counts[p] += 1
            if num_saturated == k:
                # Everything saturated → least-loaded fallback.
                choice = 0
                best_load = loads_l[0]
                for i in range(1, k):
                    if loads_l[i] < best_load:
                        best_load = loads_l[i]
                        choice = i
            else:
                choice = -1
                best = _NEG_INF
                for i in range(k):
                    if saturated[i]:
                        continue
                    s = counts[i] - penalty[i]
                    if s > best:
                        best = s
                        choice = i
            for p in touched:
                counts[p] = 0
            parts_l[v] = choice
            grown = loads_l[choice] + weights_l[v]
            loads_l[choice] = grown
            penalty[choice] = ag * pow_like_numpy(grown, gm1)
            if not saturated[choice] and grown >= capacity:
                saturated[choice] = True
                num_saturated += 1

    parts[:] = parts_l
    loads[:] = loads_l


def single_incremental(
    overlap: np.ndarray,
    loads: np.ndarray,
    *,
    alpha: float,
    gamma: float,
    capacity: float,
) -> int:
    k = loads.shape[0]
    gm1 = gamma - 1.0
    ag = alpha * gamma
    overlap_l = overlap.tolist()
    loads_l = loads.tolist()
    choice = -1
    best = _NEG_INF
    num_saturated = 0
    for i in range(k):
        if loads_l[i] >= capacity:
            num_saturated += 1
            continue
        s = overlap_l[i] - ag * pow_like_numpy(loads_l[i], gm1)
        if s > best:
            best = s
            choice = i
    if num_saturated == k:
        choice = 0
        best_load = loads_l[0]
        for i in range(1, k):
            if loads_l[i] < best_load:
                best_load = loads_l[i]
                choice = i
    return choice


BACKEND = KernelBackend(name="incremental", fennel=fennel_incremental)
register_kernel(BACKEND)
