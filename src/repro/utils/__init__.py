"""Shared utilities: RNG handling, canonical JSON, and validation helpers."""

from repro.utils.rng import as_rng, derive_rng, splitmix64
from repro.utils.validation import (
    check_count,
    check_nonnegative,
    check_positive,
    check_probability,
)

__all__ = [
    "as_rng",
    "derive_rng",
    "splitmix64",
    "check_count",
    "check_nonnegative",
    "check_positive",
    "check_probability",
]
