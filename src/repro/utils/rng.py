"""Deterministic random-number utilities.

All stochastic components of the library (graph generators, hash
partitioner, walker engines) accept either a seed or a
:class:`numpy.random.Generator`. Centralising the coercion here keeps
experiments reproducible: the same seed always yields the same graph,
partition, and walk traces.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_rng", "derive_rng", "spawn_rngs", "splitmix64", "hash_u64"]

# Constants of the splitmix64 finaliser (Steele et al., "Fast splittable
# pseudorandom number generators", OOPSLA 2014). Used as a deterministic
# integer hash so Hash partitioning does not depend on Python's salted hash().
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA, _MUL1, _MUL2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_SM64_GAMMA = np.uint64(_GAMMA)
_SM64_MUL1 = np.uint64(_MUL1)
_SM64_MUL2 = np.uint64(_MUL2)


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh nondeterministic generator; an integer seeds a
    PCG64 stream; an existing generator is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(seed: int | np.random.Generator | None, *salt: int) -> np.random.Generator:
    """Derive an independent generator from ``seed`` and integer ``salt``.

    Useful when one experiment seed must drive several independent
    stochastic stages (graph generation, partitioning, walking) without
    the stages sharing a stream.
    """
    if isinstance(seed, np.random.Generator):
        # Fold salt into fresh entropy drawn from the parent stream.
        base = int(seed.integers(0, 2**63 - 1))
    elif seed is None:
        return np.random.default_rng()
    else:
        base = int(seed)
    # splitmix64 on plain ints, masked to 64 bits: the same fold as the
    # array :func:`splitmix64` without a uint64 round-trip per salt.
    mixed = base & _MASK64
    for s in salt:
        z = ((mixed ^ (s & _MASK64)) + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
        mixed = z ^ (z >> 31)
    return np.random.default_rng(mixed)


def spawn_rngs(seed: int | np.random.Generator | None, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` independent generators (one per simulated machine)."""
    root = np.random.SeedSequence(
        seed if isinstance(seed, int) else int(as_rng(seed).integers(0, 2**63 - 1))
    )
    return [np.random.default_rng(ss) for ss in root.spawn(n)]


def splitmix64(x: np.uint64 | np.ndarray) -> np.uint64 | np.ndarray:
    """Splitmix64 finaliser: a high-quality 64-bit integer mix.

    Works elementwise on ``uint64`` arrays; overflow wraps (mod 2^64) as
    the algorithm requires.
    """
    with np.errstate(over="ignore"):
        z = (np.uint64(x) + _SM64_GAMMA).astype(np.uint64) if isinstance(x, np.ndarray) else np.uint64(x) + _SM64_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SM64_MUL1
        z = (z ^ (z >> np.uint64(27))) * _SM64_MUL2
        return z ^ (z >> np.uint64(31))


def hash_u64(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Deterministically hash an integer array to ``uint64``.

    The hash mixes a caller-supplied seed so different hash partitioner
    instances produce different but reproducible assignments.
    """
    v = np.asarray(values, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return splitmix64(v ^ splitmix64(np.uint64(seed & _MASK64)))
