"""Unit tests for the utils package."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.utils import (
    as_rng,
    check_count,
    check_nonnegative,
    check_positive,
    check_probability,
    derive_rng,
    splitmix64,
)
from repro.utils.rng import hash_u64, seed_states
from tests.serving._walk_model import rng_from_state

_M64 = 0xFFFFFFFFFFFFFFFF


def _unmix(out: int) -> int:
    """The ``x`` with ``splitmix64(x) == out`` (the finaliser is a bijection)."""

    def unshift(y: int, s: int) -> int:
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(out, 31) * pow(0x94D049BB133111EB, -1, 2**64) & _M64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) & _M64
    return (unshift(z, 30) - 0x9E3779B97F4A7C15) & _M64


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


_WIDE = st.integers(-(2**80), 2**80)  # negative and wider-than-64-bit seeds and salts


class TestSeedStates:
    """``seed_states`` rows are the PCG64 states ``derive_rng`` would seed."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=_WIDE,
        salt=st.lists(_WIDE, max_size=3),
        extra=st.lists(st.integers(0, _M64), max_size=3),
    )
    @example(seed=-1, salt=[], extra=[_M64])
    @example(seed=2**70 + 5, salt=[-3, 2**65], extra=[2**32, 2**40])
    def test_rows_are_derive_rngs_states(self, seed, salt, extra):
        indices = [0, 1023, 1024, *extra]
        table = seed_states(np.array(indices, dtype=np.uint64), seed, *salt)
        assert table.shape == (len(indices), 4) and table.dtype == np.uint64
        for i, row in zip(indices, table):
            mixed = seed & _M64
            for s in (*salt, i):
                mixed = int(splitmix64(np.uint64(mixed ^ (s & _M64))))
            expect = np.random.SeedSequence(mixed).generate_state(4, np.uint64)
            np.testing.assert_array_equal(row, expect)
            np.testing.assert_array_equal(
                rng_from_state(row).random(64), derive_rng(seed, *salt, i).random(64)
            )

    @pytest.mark.parametrize("entropy", [0, 2**32 - 1, 2**32, 2**64 - 1])
    def test_entropy_word_edges(self, entropy):
        # derive_rng(0, index) hands SeedSequence exactly ``entropy``:
        # one uint32 word below 2**32, two from there on.
        index = _unmix(entropy)
        assert int(splitmix64(np.uint64(index))) == entropy
        row = seed_states(np.array([index], dtype=np.uint64), 0)[0]
        expect = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
        np.testing.assert_array_equal(row, expect)
        np.testing.assert_array_equal(
            rng_from_state(row).random(8), np.random.default_rng(entropy).random(8)
        )


class TestValidation:
    @pytest.mark.parametrize("value", [1, 7, np.int64(3), np.uint32(2)])
    def test_check_count_accepts_positive_integers(self, value):
        check_count("n", value)

    @pytest.mark.parametrize("value", [0, -2, 2.5, 2.0, True, np.True_, "3", None, np.float64(4)])
    def test_check_count_rejects_the_rest(self, value):
        with pytest.raises(ConfigurationError, match="n must be a positive integer"):
            check_count("n", value)

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

    def test_error_names_parameter(self):
        with pytest.raises(ConfigurationError, match="myparam"):
            check_positive("myparam", -3)
