"""The generators' endpoint sampler against ``Generator.choice`` itself.

``_endpoints(rng, p, m)`` replaces two ``rng.choice(n, size=m, p=p)``
draws, so every generated graph depends on it returning the same ids and
leaving the generator in the same state. These properties compare it with
NumPy's ``choice`` on a twin generator: a NumPy whose ``choice`` changes
fails here instead of silently moving every graph's bytes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import _endpoints

NEAR_POWERS = sorted({2**k + d for k in range(13) for d in (-1, 0, 1)} & set(range(1, 5001)))


@st.composite
def distributions(draw) -> np.ndarray:
    """A probability vector: random skew, zeros anywhere (first and last
    included), one vertex holding 0.999 of the mass, or a cdf on the grid
    ``k / g`` of a cell count ``g`` that is not a power of two."""
    n = draw(st.one_of(st.integers(1, 5000), st.sampled_from(NEAR_POWERS)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = gen.random(n) ** draw(st.sampled_from([1.0, 4.0, 32.0]))
    shape = draw(st.sampled_from(["skewed", "zeros", "dominant", "grid"]))
    if shape == "grid":
        g = draw(st.sampled_from([n, n + 1, 3 * n]))
        ks = np.append(np.sort(gen.choice(np.arange(1, g), n - 1, replace=False)), g)
        return np.diff(ks / g, prepend=0.0)  # sums to 1 within rounding, like choice allows
    if shape == "zeros":
        w[gen.random(n) < draw(st.floats(0.0, 0.95))] = 0.0
        w[[i for i, zero in ((0, draw(st.booleans())), (n - 1, draw(st.booleans()))) if zero]] = 0.0
        if not w.any():
            w[gen.integers(n)] = 1.0
    elif shape == "dominant" and n > 1:
        w *= 0.001 / w.sum()
        w[gen.integers(n)] = 0.999
    return w / w.sum()


def _cdf(p: np.ndarray) -> np.ndarray:
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


class _Uniforms:
    """Stands in for the generator: every ``random(m)`` returns ``u``."""

    def __init__(self, u: np.ndarray):
        self.u = u

    def random(self, m: int) -> np.ndarray:
        assert m == self.u.size
        return self.u.copy()


@settings(max_examples=150, deadline=None)
@given(p=distributions(), m=st.one_of(st.just(0), st.integers(1, 3000)),
       seed=st.integers(0, 2**32 - 1))
def test_endpoints_equal_two_choice_draws(p, m, seed):
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    src, dst = _endpoints(rng, p, m)
    assert src.dtype == dst.dtype == np.int64
    assert np.array_equal(src, twin.choice(p.size, size=m, p=p))
    assert np.array_equal(dst, twin.choice(p.size, size=m, p=p))
    assert rng.bit_generator.state == twin.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(p=distributions())
def test_uniforms_on_the_edges_search_like_searchsorted(p):
    # Random uniforms almost never land on a cdf value or a bucket edge, so
    # feed those (and their neighbouring doubles) in directly: ties at cdf
    # values, zero-mass runs, and u·buckets rounding at every candidate
    # bucket count near n or near the power of two at or above it.
    cdf, n = _cdf(p), p.size
    power = 1 << max(1, (n - 1).bit_length())
    counts = {b + d for b in (n, power) for d in (-1, 0, 1)} - {0}
    edges = np.concatenate([np.arange(b) / b for b in sorted(counts)])
    u = np.concatenate([cdf, edges, np.linspace(0.0, 1.0, 257)])
    u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
    u = np.unique(u[(u >= 0.0) & (u < 1.0)])
    src, dst = _endpoints(_Uniforms(u), p, u.size)
    expected = cdf.searchsorted(u, side="right")
    assert np.array_equal(src, expected) and np.array_equal(dst, expected)


@pytest.mark.parametrize("p", [
    [0.5, -0.1, 0.6],
    [0.5, np.nan, 0.5],
    [0.3, 0.3, 0.3],
    [0.6, 0.6],
    [np.inf, 1.0],
    [[0.5, 0.5]],
], ids=["negative", "nan", "sum-below-1", "sum-above-1", "inf", "2-d"])
def test_invalid_p_is_a_value_error_like_choice(p):
    p = np.asarray(p, dtype=np.float64)
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(p.shape[-1], size=4, p=p)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        _endpoints(rng, p, 4)
    assert rng.bit_generator.state == state  # rejected before any draw
