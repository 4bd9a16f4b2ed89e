"""Synthetic graph generators.

The paper's phenomena (one-dimensional balance skews the other
dimension; hubs concentrate in chunks) are driven by the *scale-free*
degree distribution of real social graphs. The primary generator here is
:func:`chung_lu`, which reproduces a prescribed power-law expected-degree
sequence and is fully vectorised — it is the engine behind the
LiveJournal/Twitter/Friendster stand-ins in :mod:`repro.graph.datasets`.

:func:`rmat` (the Graph500 generator) and :func:`barabasi_albert` are
provided as alternative skewed generators for ablations; the regular
graphs at the bottom (ring, grid, star, …) are deterministic fixtures
used throughout the test suite.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph
from repro.utils import native
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive, check_probability

__all__ = [
    "powerlaw_degrees",
    "chung_lu",
    "social_graph",
    "social_edge_batches",
    "rmat",
    "barabasi_albert",
    "erdos_renyi",
    "planted_partition",
    "ring_graph",
    "path_graph",
    "star_graph",
    "grid_graph",
    "complete_graph",
]


def powerlaw_degrees(
    num_vertices: int,
    avg_degree: float,
    exponent: float = 2.5,
    *,
    max_degree: int | None = None,
    order: str = "shuffle",
    rng=None,
) -> np.ndarray:
    """Expected-degree sequence following a power law.

    Uses the standard rank-based construction ``w_i ∝ (i + i0)^{-1/(γ-1)}``
    which yields a tail exponent of ``γ`` (``exponent``), then rescales so
    the mean equals ``avg_degree``.

    Parameters
    ----------
    num_vertices: number of vertices.
    avg_degree:   target mean degree.
    exponent:     power-law tail exponent γ (social graphs: 2–3).
    max_degree:   optional hub cap (defaults to ``n / 2``).
    order:
        ``"shuffle"`` — vertex id carries no degree information;
        ``"desc"`` / ``"asc"`` — degree monotone in id, modelling
        crawl-order datasets where early ids are the high-degree
        accounts (the paper's "high-degree vertices are easily gathered
        together" observation);
        ``"windows"`` — descending but shuffled inside small windows, so
        hubs cluster in id ranges without being exactly sorted.
    rng:          seed or generator for the shuffles.
    """
    check_positive("num_vertices", num_vertices)
    check_positive("avg_degree", avg_degree)
    if exponent <= 1.0:
        raise ConfigurationError(f"exponent must be > 1, got {exponent}")
    rng = as_rng(rng)
    n = int(num_vertices)
    ranks = np.arange(n, dtype=np.float64)
    # Offset i0 keeps the largest weight finite and tunes hub dominance.
    i0 = max(1.0, n * 0.001)
    w = (ranks + i0) ** (-1.0 / (exponent - 1.0))
    w *= avg_degree / w.mean()
    cap = float(max_degree if max_degree is not None else n // 2 or 1)
    np.minimum(w, cap, out=w)
    w *= avg_degree / w.mean()  # re-center mean after the cap
    np.minimum(w, cap, out=w)  # final cap wins; mean may land slightly low
    if order == "shuffle":
        rng.shuffle(w)
    elif order == "desc":
        pass  # already descending by construction
    elif order == "asc":
        w = w[::-1].copy()
    elif order == "windows":
        _shuffle_windows(w, max(16, n // 256), rng)
    else:
        raise ConfigurationError(
            f"order must be shuffle|desc|asc|windows, got {order!r}"
        )
    return w


def _shuffle_windows(values: np.ndarray, window: int, rng) -> None:
    """In-place shuffle restricted to consecutive windows of ``window``."""
    n = values.size
    for start in range(0, n, window):
        rng.shuffle(values[start : start + window])


def _endpoints(rng, p, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``rng.choice(p.size, size=m, p=p)`` twice: the same ids, the same generator state."""
    p = np.ascontiguousarray(p, dtype=np.float64)
    if p.ndim != 1 or not ((p >= 0).all() and abs(p.sum() - 1) <= np.finfo(float).eps ** 0.5):
        raise ValueError("p must be 1-D, non-negative, free of NaN and sum to 1")
    return _draw(rng, p, m), _draw(rng, p, m)


def _draw(rng, p: np.ndarray, m: int) -> np.ndarray:
    cdf = p.cumsum()  # choice's cdf and uniforms; _sample.c fills the guide table
    cdf /= cdf[-1]
    u, out = rng.random(m), np.empty(m, dtype=np.int64)
    guide = np.empty((1 << max(1, (p.size - 1).bit_length())) + 1, dtype=np.int64)
    native.call("sample_cdf", cdf, guide, u, out)
    return out


def social_graph(
    num_vertices: int,
    avg_degree: float,
    exponent: float = 2.5,
    *,
    locality: float = 0.2,
    window_frac: float = 0.02,
    rng=None,
) -> CSRGraph:
    """Scale-free graph with the two id-structure properties of real
    social-network dumps.

    Real crawls (the paper's Twitter/Friendster/LiveJournal files) have:

    1. **Degree–id correlation** — early ids are old, high-degree
       accounts, so hubs cluster in id ranges. This is what makes
       Chunk-V's edge counts wildly imbalanced (Figure 6a) and Chunk-E's
       vertex counts wildly imbalanced (Figure 6b).
    2. **Id locality** — neighbouring accounts get nearby ids (crawl /
       community order), so contiguous chunks cut fewer edges than a
       random (hash) split, and Fennel can find genuinely low cuts
       (Table 3).

    Implementation: a Chung–Lu draw over a *windows-ordered* power-law
    weight sequence, where a ``locality`` fraction of edges is rewired to
    a uniformly random target inside ``±window_frac·n`` of the source.

    Parameters
    ----------
    locality:     fraction of edges rewired to nearby ids (0 = pure
                  Chung–Lu; calibrate against the dataset's chunk cut).
    window_frac:  half-width of the locality window as a fraction of n.
    """
    batches = social_edge_batches(num_vertices, avg_degree, exponent, locality=locality,
                                  window_frac=window_frac, rng=rng, batch_size=sys.maxsize)
    src, dst = next(batches, (np.empty(0, np.int64),) * 2)  # one batch; none when m = 0
    return from_edges(src, dst, int(num_vertices), directed=False)


def social_edge_batches(
    num_vertices: int,
    avg_degree: float,
    exponent: float = 2.5,
    *,
    locality: float = 0.2,
    window_frac: float = 0.02,
    rng=None,
    batch_size: int = 1 << 20,
):
    """:func:`social_graph`'s edge sampler as a bounded-memory stream.

    Yields ``(src, dst)`` batches of at most ``batch_size`` draws — the
    same weight sequence, sampling distribution, and locality rewiring,
    holding only O(n) weights plus one batch in memory. Feed the batches
    to a :class:`~repro.graph.sharded.ShardedCSRBuilder` to construct
    graphs larger than RAM.

    Deterministic for a fixed ``(seed, batch_size)``. The RNG is consumed
    per batch, so only a ``batch_size`` of at least the edge count gives
    :func:`social_graph`'s sample; smaller batches give another sample of
    the same distribution — out-of-core builds are their own dataset
    family, not a byte-level replay of the in-RAM one.
    """
    check_probability("locality", locality)  # powerlaw_degrees checks n and the degree
    if not 0.0 < window_frac <= 1.0:
        raise ConfigurationError(f"window_frac must be in (0, 1], got {window_frac}")
    check_positive("batch_size", batch_size)
    rng = as_rng(rng)
    n = int(num_vertices)
    w = powerlaw_degrees(n, avg_degree, exponent, order="windows", rng=rng)
    p = w / w.sum()
    m = int(round(n * avg_degree / 2 * 1.08))
    half = max(1, int(round(n * window_frac)))
    sign = np.array([-1, 1])
    for begin in range(0, m, int(batch_size)):
        src, dst = _endpoints(rng, p, min(int(batch_size), m - begin))
        local = rng.random(src.size) < locality
        n_local = int(local.sum())
        if n_local:
            offsets = rng.integers(1, half + 1, size=n_local) * rng.choice(
                sign, size=n_local
            )
            dst[local] = np.clip(src[local] + offsets, 0, n - 1)
        yield src, dst


def chung_lu(
    num_vertices: int,
    avg_degree: float,
    exponent: float = 2.5,
    *,
    weights: np.ndarray | None = None,
    rng=None,
) -> CSRGraph:
    """Chung–Lu style random graph with a power-law degree sequence.

    Edges are sampled by drawing both endpoints proportionally to the
    weight sequence (an expected-degree configuration model). Self-loops
    and duplicates are dropped, so the realised average degree lands
    slightly below the target; the stand-in datasets compensate by
    oversampling ~5 %.

    Fully vectorised: two :meth:`Generator.choice`-equal draws of ``m`` ids.
    """
    rng = as_rng(rng)
    n = int(num_vertices)
    if weights is None:
        weights = powerlaw_degrees(n, avg_degree, exponent, rng=rng)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,) or not ((w >= 0).all() and 0.0 < w.sum() < np.inf):
        raise ConfigurationError(f"weights must be {n} finite non-negative values, not all zero")
    # Undirected edges; each contributes degree 2, so m = n·d̄/2. Oversample
    # to offset dedup/self-loop losses on heavy-tailed sequences.
    src, dst = _endpoints(rng, w / w.sum(), int(round(n * avg_degree / 2 * 1.05)))
    return from_edges(src, dst, n, directed=False)


def rmat(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    *,
    rng=None,
    directed: bool = False,
) -> CSRGraph:
    """R-MAT / Graph500 recursive-matrix generator.

    Generates ``2^scale`` vertices and ``edge_factor · 2^scale`` edges by
    recursively descending into quadrants of the adjacency matrix with
    probabilities ``(a, b, c, d = 1 - a - b - c)``. Vectorised across all
    edges: one pass per bit of the vertex id.
    """
    check_positive("scale", scale)
    check_positive("edge_factor", edge_factor)
    for name, val in (("a", a), ("b", b), ("c", c)):
        check_probability(name, val)
    d = 1.0 - a - b - c
    if d < 0:
        raise ConfigurationError(f"a + b + c must be <= 1, got {a + b + c}")
    rng = as_rng(rng)
    n = 1 << scale
    m = edge_factor * n
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    # At each level, pick a quadrant for every edge simultaneously.
    p_right = b + d  # probability the column bit is 1
    for bit in range(scale):
        r_col = rng.random(m)
        col = r_col < p_right
        # Row bit conditioned on the chosen column half.
        p_row_given_col1 = d / p_right if p_right > 0 else 0.0
        p_row_given_col0 = c / (a + c) if (a + c) > 0 else 0.0
        r_row = rng.random(m)
        row = np.where(col, r_row < p_row_given_col1, r_row < p_row_given_col0)
        src = (src << 1) | row
        dst = (dst << 1) | col
    # Permute vertex ids so hubs are not clustered at low ids — Chunk-V on
    # raw R-MAT ids would otherwise see a sorted-degree stream.
    perm = rng.permutation(n)
    return from_edges(perm[src], perm[dst], n, directed=directed)


def barabasi_albert(num_vertices: int, m: int = 4, *, rng=None) -> CSRGraph:
    """Barabási–Albert preferential attachment.

    Classic repeated-endpoints implementation: sequential by nature, so
    intended for test- and ablation-scale graphs (≲ 10^5 vertices).
    """
    check_positive("num_vertices", num_vertices)
    check_positive("m", m)
    n = int(num_vertices)
    if n <= m:
        raise ConfigurationError(f"num_vertices ({n}) must exceed m ({m})")
    rng = as_rng(rng)
    # Attachment pool: every endpoint of every edge so far; sampling
    # uniformly from the pool is sampling ∝ degree.
    pool = np.empty(2 * m * n, dtype=np.int64)
    pool[: m + 1] = np.arange(m + 1)  # seed clique-ish start
    pool_len = m + 1
    src_out = np.empty(m * n, dtype=np.int64)
    dst_out = np.empty(m * n, dtype=np.int64)
    e = 0
    for v in range(m + 1, n):
        targets = pool[rng.integers(0, pool_len, size=m)]
        targets = np.unique(targets)
        k = targets.size
        src_out[e : e + k] = v
        dst_out[e : e + k] = targets
        e += k
        pool[pool_len : pool_len + k] = targets
        pool[pool_len + k : pool_len + 2 * k] = v
        pool_len += 2 * k
    return from_edges(src_out[:e], dst_out[:e], n, directed=False)


def erdos_renyi(num_vertices: int, avg_degree: float, *, rng=None) -> CSRGraph:
    """G(n, m) uniform random graph with ``m = n · d̄ / 2`` edges."""
    check_positive("num_vertices", num_vertices)
    check_positive("avg_degree", avg_degree)
    rng = as_rng(rng)
    n = int(num_vertices)
    m = int(round(n * avg_degree / 2 * 1.02))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    return from_edges(src, dst, n, directed=False)


def planted_partition(
    num_vertices: int,
    num_groups: int,
    *,
    intra_degree: float = 8.0,
    inter_degree: float = 1.0,
    rng=None,
) -> tuple[CSRGraph, np.ndarray]:
    """Planted-partition (stochastic block model) graph with ground truth.

    ``num_groups`` equal-size contiguous communities (vertex ``v``
    belongs to group ``v·g/n``); each vertex gets ``intra_degree``
    expected within-group stubs and ``inter_degree`` expected
    cross-group stubs. Returns ``(graph, labels)`` — the labels are the
    recovered-community ground truth the churn scenarios score ARI
    against (Tsourakakis-style planted benchmark).
    """
    check_positive("num_vertices", num_vertices)
    check_positive("num_groups", num_groups)
    check_positive("intra_degree", intra_degree)
    if inter_degree < 0:
        raise ConfigurationError(f"inter_degree must be >= 0, got {inter_degree}")
    n = int(num_vertices)
    g = int(num_groups)
    if g > n:
        raise ConfigurationError(f"num_groups {g} exceeds num_vertices {n}")
    rng = as_rng(rng)
    labels = (np.arange(n, dtype=np.int64) * g) // n

    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    # within-group edges, sampled per block so both endpoints share a label
    bounds = np.searchsorted(labels, np.arange(g + 1))
    for b in range(g):
        lo, hi = int(bounds[b]), int(bounds[b + 1])
        size = hi - lo
        if size < 2:
            continue
        m_in = int(round(size * intra_degree / 2))
        srcs.append(rng.integers(lo, hi, size=m_in))
        dsts.append(rng.integers(lo, hi, size=m_in))
    # cross-group edges: uniform pairs filtered to differing labels
    m_out = int(round(n * inter_degree / 2))
    if m_out and g > 1:
        # oversample so the post-filter count concentrates near m_out
        cand = int(m_out * g / max(g - 1, 1)) + 8
        u = rng.integers(0, n, size=cand)
        v = rng.integers(0, n, size=cand)
        keep = labels[u] != labels[v]
        srcs.append(u[keep][:m_out])
        dsts.append(v[keep][:m_out])
    src = np.concatenate(srcs) if srcs else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=np.int64)
    return from_edges(src, dst, n, directed=False), labels


# ----------------------------------------------------------------------
# Deterministic fixtures
# ----------------------------------------------------------------------
def ring_graph(num_vertices: int) -> CSRGraph:
    """Cycle of ``n`` vertices — every vertex has degree 2."""
    check_positive("num_vertices", num_vertices)
    n = int(num_vertices)
    v = np.arange(n, dtype=np.int64)
    return from_edges(v, (v + 1) % n, n, directed=False)


def path_graph(num_vertices: int) -> CSRGraph:
    """Simple path ``0 - 1 - … - (n-1)``."""
    check_positive("num_vertices", num_vertices)
    n = int(num_vertices)
    v = np.arange(n - 1, dtype=np.int64)
    return from_edges(v, v + 1, n, directed=False)


def star_graph(num_leaves: int) -> CSRGraph:
    """Hub vertex 0 connected to ``num_leaves`` leaves — the extreme
    skew case used to stress-test balance metrics."""
    check_positive("num_leaves", num_leaves)
    k = int(num_leaves)
    return from_edges(np.zeros(k, dtype=np.int64), np.arange(1, k + 1), k + 1, directed=False)


def grid_graph(rows: int, cols: int) -> CSRGraph:
    """2-D mesh — a low-cut planar fixture (partitioners should find
    near-optimal cuts on it)."""
    check_positive("rows", rows)
    check_positive("cols", cols)
    r, c = int(rows), int(cols)
    ids = np.arange(r * c, dtype=np.int64).reshape(r, c)
    horiz_src, horiz_dst = ids[:, :-1].ravel(), ids[:, 1:].ravel()
    vert_src, vert_dst = ids[:-1, :].ravel(), ids[1:, :].ravel()
    return from_edges(
        np.concatenate([horiz_src, vert_src]),
        np.concatenate([horiz_dst, vert_dst]),
        r * c,
        directed=False,
    )


def complete_graph(num_vertices: int) -> CSRGraph:
    """K_n — for tiny exact-answer tests."""
    check_positive("num_vertices", num_vertices)
    n = int(num_vertices)
    src, dst = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    keep = src.ravel() < dst.ravel()
    return from_edges(src.ravel()[keep], dst.ravel()[keep], n, directed=False)
