"""Deterministic random-number utilities.

All stochastic components of the library (graph generators, hash
partitioner, walker engines) accept either a seed or a
:class:`numpy.random.Generator`. Centralising the coercion here keeps
experiments reproducible: the same seed always yields the same graph,
partition, and walk traces.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_rng", "derive_rng", "seed_states", "splitmix64", "hash_u64"]

# Constants of the splitmix64 finaliser (Steele et al., "Fast splittable
# pseudorandom number generators", OOPSLA 2014). Used as a deterministic
# integer hash so Hash partitioning does not depend on Python's salted hash().
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA, _MUL1, _MUL2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_SM64_GAMMA = np.uint64(_GAMMA)
_SM64_MUL1 = np.uint64(_MUL1)
_SM64_MUL2 = np.uint64(_MUL2)


# NumPy's SeedSequence (a pool of four uint32 words) hashes with the
# multiplier chains ``init * mult**k``; they do not depend on the entropy.
# Mixing calls hashmix 16 times, generate_state(4, uint64) hashes 8 words.
_HASH_A = [0x43B0D7E5 * pow(0x931E8875, k, 2**32) % 2**32 for k in range(17)]
_HASH_B = [0x8B51F9DD * pow(0x58F38DED, k, 2**32) % 2**32 for k in range(9)]
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh nondeterministic generator; an integer seeds a
    PCG64 stream; an existing generator is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _fold(base: int, salt) -> int:
    # splitmix64 on plain ints, masked to 64 bits: the same fold as the
    # array :func:`splitmix64` without a uint64 round-trip per salt.
    mixed = base & _MASK64
    for s in salt:
        z = ((mixed ^ (s & _MASK64)) + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
        mixed = z ^ (z >> 31)
    return mixed


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
    return np.random.default_rng(_fold(base, salt))


def seed_states(indices: np.ndarray, seed: int, *salt: int) -> np.ndarray:
    """PCG64 seed states of ``derive_rng(seed, *salt, i)`` for each ``i`` in ``indices``.

    Row ``j`` is ``SeedSequence(mixed).generate_state(4, np.uint64)`` for
    :func:`derive_rng`'s fold ``mixed`` of ``(seed, *salt, indices[j])``, hashed
    for all keys at once: a key below 2**32 is the entropy ``[lo]``, which
    hashes like ``[lo, 0]``. ``PCG64`` seeded with a row's words draws as that generator
    does; ``serving/_serve.c`` draws a walk batch's doubles that way.
    """
    keys = splitmix64(np.uint64(_fold(int(seed), salt)) ^ np.asarray(indices, dtype=np.uint64))
    lo, hi = (keys & 0xFFFFFFFF).astype(np.uint32), (keys >> 32).astype(np.uint32)
    consts = iter(zip(_HASH_A, _HASH_A[1:]))

    def hashmix(value: np.ndarray) -> np.ndarray:
        xor, mul = next(consts)
        value = (value ^ xor) * mul
        return value ^ (value >> 16)

    pool = [hashmix(w) for w in (lo, hi, np.zeros_like(lo), np.zeros_like(lo))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = value ^ (value >> 16)
    words = []
    for i, (xor, mul) in enumerate(zip(_HASH_B, _HASH_B[1:])):
        value = (pool[i % 4] ^ xor) * mul
        words.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([words[i] | words[i + 1] << 32 for i in range(0, 8, 2)], axis=1)


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
