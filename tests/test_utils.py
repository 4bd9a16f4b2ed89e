"""Unit tests for the utils package."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils import (
    as_rng,
    check_fraction,
    check_nonnegative,
    check_positive,
    check_probability,
    derive_rng,
    spawn_rngs,
    splitmix64,
)
from repro.utils.rng import hash_u64


class TestRng:
    def test_as_rng_from_int(self):
        a, b = as_rng(42), as_rng(42)
        assert a.integers(0, 1000) == b.integers(0, 1000)

    def test_as_rng_passthrough(self):
        g = np.random.default_rng(1)
        assert as_rng(g) is g

    def test_as_rng_none(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_derive_rng_independent(self):
        a = derive_rng(7, 1)
        b = derive_rng(7, 2)
        assert a.integers(0, 2**31) != b.integers(0, 2**31)

    def test_derive_rng_deterministic(self):
        assert derive_rng(7, 3).integers(0, 2**31) == derive_rng(7, 3).integers(0, 2**31)

    def test_derive_rng_folds_salts_like_array_splitmix64(self):
        # derive_rng folds its salts with pure-int splitmix64; the array
        # splitmix64 (uint64 wrap-around) is the reference, including for
        # negative and wider-than-64-bit seeds and salts.
        draw = np.random.default_rng(11)
        wide = lambda: int(draw.integers(-(2**62), 2**62)) * int(draw.integers(1, 2**20))
        for _ in range(300):
            seed, salt = wide(), [wide() for _ in range(int(draw.integers(0, 5)))]
            mixed = seed & 0xFFFFFFFFFFFFFFFF
            for s in salt:
                mixed = int(splitmix64(np.uint64(mixed ^ (s & 0xFFFFFFFFFFFFFFFF))))
            expect = np.random.default_rng(mixed).integers(0, 2**62, size=4)
            np.testing.assert_array_equal(derive_rng(seed, *salt).integers(0, 2**62, size=4), expect)
        assert any(abs(wide()) >= 2**64 for _ in range(50))

    def test_spawn_rngs(self):
        rngs = spawn_rngs(9, 4)
        assert len(rngs) == 4
        draws = {int(r.integers(0, 2**31)) for r in rngs}
        assert len(draws) == 4  # overwhelmingly likely distinct

    def test_splitmix_array(self):
        x = np.arange(10, dtype=np.uint64)
        y = splitmix64(x)
        assert y.shape == x.shape
        assert len(np.unique(y)) == 10

    def test_hash_u64_seed_sensitivity(self):
        v = np.arange(100, dtype=np.uint64)
        assert not np.array_equal(hash_u64(v, 0), hash_u64(v, 1))

    def test_hash_u64_roughly_uniform(self):
        v = np.arange(80_000, dtype=np.uint64)
        parts = hash_u64(v, 3) % np.uint64(8)
        counts = np.bincount(parts.astype(int), minlength=8)
        assert counts.min() > 0.9 * counts.max()


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ConfigurationError):
            check_positive("x", 0)

    def test_check_nonnegative(self):
        check_nonnegative("x", 0)
        with pytest.raises(ConfigurationError):
            check_nonnegative("x", -1)

    def test_check_probability(self):
        check_probability("p", 0.0)
        check_probability("p", 1.0)
        with pytest.raises(ConfigurationError):
            check_probability("p", 1.01)

    def test_check_fraction(self):
        check_fraction("f", 1.0)
        with pytest.raises(ConfigurationError):
            check_fraction("f", 0.0)

    def test_error_names_parameter(self):
        with pytest.raises(ConfigurationError, match="myparam"):
            check_positive("myparam", -3)
