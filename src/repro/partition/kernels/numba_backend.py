"""Optional numba-JIT streaming kernel.

Auto-detected at import: when numba is installed, a compiled version of
the incremental algorithm (delta-maintained penalties, counter reset by
touched entries) registers under ``"numba"`` and becomes the ``"auto"``
default. When it is not — the common case for the slim test image —
this module registers nothing and :func:`~repro.partition.kernels.base.
get_kernel` resolves ``"numba"`` to the ``"auto"`` default
(``"buffered"``), so a ``kernel="numba"`` knob never errors on a machine without the JIT. The
substitution is visible, not silent: :func:`note_missing_numba` warns
once per process and counts each fallback in
``kernels.numba_fallbacks`` telemetry.

The compiled loops operate on the NumPy arrays directly (no ``tolist``
mirrors) and use the same arithmetic order as the reference, so the
bit-exactness contract carries over; the parity suite runs against this
backend automatically whenever numba is importable.
"""

from __future__ import annotations

import numpy as np

from repro.partition.kernels.base import KernelBackend, register_kernel
from repro.partition.kernels.incremental import single_incremental

try:  # pragma: no cover - exercised only when numba is installed
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    numba = None
    HAVE_NUMBA = False

__all__ = ["HAVE_NUMBA", "note_missing_numba"]

_WARNED_MISSING = False


def note_missing_numba() -> None:
    """Record one ``kernel="numba"`` request served by the ``auto`` default.

    Warns once per process — not per dispatch, which used to spam
    suites that resolve the kernel eagerly per partitioner — and bumps
    ``kernels.numba_fallbacks`` every time so telemetry shows which
    backend actually ran.
    """
    global _WARNED_MISSING
    from repro import telemetry

    if telemetry.enabled():
        telemetry.active().counter("kernels.numba_fallbacks").inc()
    if not _WARNED_MISSING:
        _WARNED_MISSING = True
        import warnings

        warnings.warn(
            "kernel='numba' requested but numba is not installed; "
            "using the default 'buffered' backend (bit-identical)",
            RuntimeWarning,
            stacklevel=4,
        )


if HAVE_NUMBA:  # pragma: no cover - exercised only when numba is installed

    @numba.njit(cache=True)
    def _pow_nb(base, exp):
        if base == 0.0:
            if exp > 0.0:
                return 0.0
            if exp == 0.0:
                return 1.0
            return np.inf
        return base**exp

    @numba.njit(cache=True)
    def _fennel_nb(indptr, indices, stream, parts, loads, weights, alpha, gamma, capacity, passes):
        k = loads.shape[0]
        gm1 = gamma - 1.0
        ag = alpha * gamma
        penalty = np.empty(k, dtype=np.float64)
        for i in range(k):
            penalty[i] = ag * _pow_nb(loads[i], gm1)
        saturated = np.zeros(k, dtype=np.bool_)
        num_saturated = 0
        for i in range(k):
            if loads[i] >= capacity:
                saturated[i] = True
                num_saturated += 1
        counts = np.zeros(k, dtype=np.int64)
        touched = np.empty(k, dtype=np.int64)
        for _pass in range(passes):
            for s in range(stream.shape[0]):
                v = stream[s]
                current = parts[v]
                if current >= 0:
                    released = loads[current] - weights[v]
                    loads[current] = released
                    penalty[current] = ag * _pow_nb(released, gm1)
                    if saturated[current] and released < capacity:
                        saturated[current] = False
                        num_saturated -= 1
                ntouched = 0
                for e in range(indptr[v], indptr[v + 1]):
                    p = parts[indices[e]]
                    if p >= 0:
                        if counts[p] == 0:
                            touched[ntouched] = p
                            ntouched += 1
                        counts[p] += 1
                if num_saturated == k:
                    choice = 0
                    best_load = loads[0]
                    for i in range(1, k):
                        if loads[i] < best_load:
                            best_load = loads[i]
                            choice = i
                else:
                    choice = -1
                    best = -np.inf
                    for i in range(k):
                        if saturated[i]:
                            continue
                        sc = counts[i] - penalty[i]
                        if sc > best:
                            best = sc
                            choice = i
                for t in range(ntouched):
                    counts[touched[t]] = 0
                parts[v] = choice
                grown = loads[choice] + weights[v]
                loads[choice] = grown
                penalty[choice] = ag * _pow_nb(grown, gm1)
                if not saturated[choice] and grown >= capacity:
                    saturated[choice] = True
                    num_saturated += 1

    @numba.njit(cache=True)
    def _ldg_nb(indptr, indices, stream, parts, loads, capacity):
        k = loads.shape[0]
        weight = np.empty(k, dtype=np.float64)
        for i in range(k):
            weight[i] = 1.0 - loads[i] / capacity
        saturated = np.zeros(k, dtype=np.bool_)
        num_saturated = 0
        for i in range(k):
            if loads[i] >= capacity:
                saturated[i] = True
                num_saturated += 1
        counts = np.zeros(k, dtype=np.int64)
        touched = np.empty(k, dtype=np.int64)
        for s in range(stream.shape[0]):
            v = stream[s]
            ntouched = 0
            num_assigned = 0
            for e in range(indptr[v], indptr[v + 1]):
                p = parts[indices[e]]
                if p >= 0:
                    if counts[p] == 0:
                        touched[ntouched] = p
                        ntouched += 1
                    counts[p] += 1
                    num_assigned += 1
            if num_saturated == k:
                choice = 0
                best_load = loads[0]
                for i in range(1, k):
                    if loads[i] < best_load:
                        best_load = loads[i]
                        choice = i
            else:
                choice = -1
                best = -np.inf
                if num_assigned > 0:
                    for i in range(k):
                        if saturated[i]:
                            continue
                        sc = counts[i] * weight[i]
                        if sc > best:
                            best = sc
                            choice = i
                else:
                    for i in range(k):
                        if saturated[i]:
                            continue
                        if weight[i] > best:
                            best = weight[i]
                            choice = i
            for t in range(ntouched):
                counts[touched[t]] = 0
            parts[v] = choice
            grown = loads[choice] + 1.0
            loads[choice] = grown
            weight[choice] = 1.0 - grown / capacity
            if not saturated[choice] and grown >= capacity:
                saturated[choice] = True
                num_saturated += 1

    def fennel_numba(indptr, indices, stream, parts, loads, weights, *, alpha, gamma, capacity, passes):
        _fennel_nb(
            indptr,
            indices,
            stream,
            parts,
            loads,
            weights,
            float(alpha),
            float(gamma),
            float(capacity),
            int(passes),
        )

    def ldg_numba(indptr, indices, stream, parts, loads, *, capacity):
        _ldg_nb(indptr, indices, stream, parts, loads, float(capacity))

    register_kernel(
        KernelBackend(
            name="numba",
            fennel=fennel_numba,
            ldg=ldg_numba,
            # Per-call JIT dispatch overhead dwarfs one k-length scoring
            # decision; the pure-Python single is faster here.
            single=single_incremental,
            exact=True,
            description="numba-JIT compiled incremental loop",
        )
    )
