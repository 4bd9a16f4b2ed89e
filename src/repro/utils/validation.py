"""Parameter validation helpers.

Small, uniform checks used across the public API so user mistakes fail
fast with a :class:`~repro.errors.ConfigurationError` naming the
offending parameter, instead of surfacing later as a cryptic NumPy
broadcasting error deep in a hot loop.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "check_count",
    "check_positive",
    "check_at_least",
    "check_nonnegative",
    "check_probability",
    "check_fraction",
    "check_vertex_ids",
]


def check_count(name: str, value: int) -> None:
    """Require a positive ``int`` or NumPy integer; ``bool`` is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")


def check_positive(name: str, value: float) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")


def check_at_least(name: str, value: float, floor: float) -> None:
    """Require ``value >= floor``; NaN fails."""
    if not value >= floor:
        raise ConfigurationError(f"{name} must be >= {floor:g}, got {value!r}")


def check_nonnegative(name: str, value: float) -> None:
    """Require ``value >= 0``."""
    if not value >= 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value!r}")


def check_probability(name: str, value: float) -> None:
    """Require ``0 <= value <= 1`` (inclusive both ends)."""
    if not (0.0 <= value <= 1.0):
        raise ConfigurationError(f"{name} must be a probability in [0, 1], got {value!r}")


def check_fraction(name: str, value: float) -> None:
    """Require ``0 < value <= 1`` — a nonzero fraction of a whole."""
    if not (0.0 < value <= 1.0):
        raise ConfigurationError(f"{name} must be in (0, 1], got {value!r}")


def check_vertex_ids(name: str, ids, n: int | None) -> np.ndarray:
    """``ids`` as 1-D int64 vertex ids in ``[0, n)`` (``n=None``: the C loop reading them
    checks), or a ``ConfigurationError`` naming ``name`` (and the first id outside)."""
    ids = np.asarray(ids)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise ConfigurationError(f"{name} must be a 1-D array of integer vertex ids")
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    if n is not None and ids.size and (ids.min() < 0 or ids.max() >= n):
        bad = ids[(ids < 0) | (ids >= n)][0]
        raise ConfigurationError(f"{name} must lie in [0, {n}), got {bad}")
    return ids
