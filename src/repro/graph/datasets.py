"""Scaled synthetic stand-ins for the paper's evaluation datasets.

The paper evaluates on three real social networks (Table 1):

==============  ============  ===========  ===========
Dataset         # vertices    # edges      avg degree
==============  ============  ===========  ===========
LiveJournal     7.5 M         225 M        29.99
Twitter         41.39 M       1.48 B       35.72
Friendster      65.60 M       3.6 B        54.87
==============  ============  ===========  ===========

Billion-edge graphs are out of reach for a single-core Python run, so
each dataset is replaced by a Chung–Lu power-law graph that preserves
the two properties the paper's phenomena depend on — the *average
degree* and the *heavy-tailed degree skew* — at a configurable scale
(default ≈ 20k–48k vertices). DESIGN.md §2 records this substitution.

Every loader takes ``scale`` (multiplier on the default vertex count)
and a ``seed`` so experiments are reproducible and can be grown until
the runtime budget is hit.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from functools import lru_cache

from repro import telemetry
from repro.graph.csr import CSRGraph
from repro.graph.generators import social_edge_batches, social_graph
from repro.utils.validation import check_positive

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "DEFAULT_SPILL_THRESHOLD",
    "load_dataset",
    "clear_dataset_cache",
    "spill_threshold",
    "livejournal_like",
    "twitter_like",
    "friendster_like",
]

#: Arc-count ceiling for in-RAM dataset builds. ``from_edges`` peaks
#: at three int64 arrays of the symmetrised arc list (measured: 26
#: bytes per stored arc, 58 MB for 2.2 M arcs) — 32 M arcs ≈ 0.8 GB, the
#: most a "small stand-in" should ever claim. Override with
#: ``REPRO_SPILL_THRESHOLD`` (a plain integer; 0 disables auto-spill).
DEFAULT_SPILL_THRESHOLD = 32_000_000


def spill_threshold() -> int:
    """Arc count above which :meth:`DatasetSpec.generate` spills to a
    sharded on-disk build. 0 means never spill."""
    raw = os.environ.get("REPRO_SPILL_THRESHOLD", "").strip()
    if not raw:
        return DEFAULT_SPILL_THRESHOLD
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_SPILL_THRESHOLD
    return max(value, 0)


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one synthetic stand-in dataset.

    Attributes
    ----------
    name:            canonical lowercase name used by :func:`load_dataset`.
    paper_vertices:  vertex count of the real dataset (for reports).
    paper_edges:     edge count of the real dataset (for reports).
    avg_degree:      average degree reproduced at small scale.
    exponent:        power-law tail exponent of the stand-in.
    base_vertices:   default vertex count at ``scale=1.0``.
    """

    name: str
    paper_vertices: int
    paper_edges: int
    avg_degree: float
    exponent: float
    base_vertices: int
    locality: float

    def generate(self, scale: float = 1.0, seed: int = 0) -> CSRGraph:
        """Materialise the stand-in graph at the requested scale.

        Builds above :func:`spill_threshold` expected arcs go through the
        streaming sampler + :class:`~repro.graph.sharded.ShardedCSRBuilder`
        into a shard directory (reused across runs when already present
        and valid) and come back as a
        :class:`~repro.graph.sharded.ShardedCSRGraph` — same read API,
        bounded memory.
        """
        check_positive("scale", scale)
        n = max(64, int(round(self.base_vertices * scale)))
        threshold = spill_threshold()
        with telemetry.active().span("graph.generate", dataset=self.name, n=n):
            if threshold and n * self.avg_degree > threshold:
                return self._generate_sharded(n, seed)
            return social_graph(n, self.avg_degree, self.exponent, locality=self.locality, rng=seed)

    def _generate_sharded(self, n: int, seed: int):
        from repro.errors import GraphFormatError
        from repro.graph.sharded import (
            ShardedCSRBuilder,
            ShardedCSRGraph,
            default_spill_root,
        )

        directory = default_spill_root() / f"{self.name}-n{n}-seed{int(seed)}"
        if directory.is_dir():
            try:
                return ShardedCSRGraph(directory)
            except GraphFormatError:
                shutil.rmtree(directory)  # torn or stale build: redo it
        builder = ShardedCSRBuilder(directory, num_vertices=n)
        try:
            for src, dst in social_edge_batches(
                n,
                self.avg_degree,
                self.exponent,
                locality=self.locality,
                rng=int(seed),
            ):
                builder.add_edges(src, dst)
            return builder.finalize()
        except BaseException:
            builder.abort()
            raise


# Exponents: Twitter's follower graph is the most hub-dominated (γ≈2.1);
# LiveJournal and Friendster are friendship graphs with milder tails.
# Locality values are calibrated so the contiguous-chunk cut ratio at k=8
# lands near the paper's Table 3 (Chunk-V cut: LJ 0.58, TW 0.75, FS 0.66).
DATASETS: dict[str, DatasetSpec] = {
    "livejournal": DatasetSpec(
        "livejournal", 7_500_000, 225_000_000, 29.99, 2.4, 16_000, locality=0.34
    ),
    "twitter": DatasetSpec(
        "twitter", 41_390_000, 1_480_000_000, 35.72, 2.1, 24_000, locality=0.15
    ),
    "friendster": DatasetSpec(
        "friendster", 65_600_000, 3_600_000_000, 54.87, 2.5, 32_000, locality=0.25
    ),
}


def _normalize_scale(scale: float) -> float:
    """Canonical float form of ``scale`` for cache keying.

    ``1``, ``1.0`` and ``np.float64(1)`` must all map to the same
    memoisation key — numpy scalars in particular hash differently from
    Python floats under ``lru_cache``'s typed key tuple, so everything
    is collapsed to a plain ``float`` before it reaches the cache.
    """
    s = float(scale)
    check_positive("scale", s)
    return s


@lru_cache(maxsize=16)
def _cached(name: str, scale: float, seed: int) -> CSRGraph:
    return DATASETS[name].generate(scale, seed)


def load_dataset(name: str, scale: float = 1.0, seed: int = 0) -> CSRGraph:
    """Load a stand-in dataset by name (``livejournal|twitter|friendster``).

    Results are memoised per ``(name, scale, seed)`` because the bench
    harness loads the same graph for many partitioners; ``scale`` and
    ``seed`` are normalised (``float``/``int``) before keying so ``1``
    and ``1.0`` share one entry.
    """
    key = name.lower()
    if key not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(DATASETS)}")
    return _cached(key, _normalize_scale(scale), int(seed))


def clear_dataset_cache() -> None:
    """Drop all memoised dataset graphs (tests, memory-pressure relief)."""
    _cached.cache_clear()


def livejournal_like(scale: float = 1.0, seed: int = 0) -> CSRGraph:
    """LiveJournal stand-in: d̄ ≈ 30, moderate skew."""
    return load_dataset("livejournal", scale, seed)


def twitter_like(scale: float = 1.0, seed: int = 0) -> CSRGraph:
    """Twitter stand-in: d̄ ≈ 35.7, strongest hub skew."""
    return load_dataset("twitter", scale, seed)


def friendster_like(scale: float = 1.0, seed: int = 0) -> CSRGraph:
    """Friendster stand-in: d̄ ≈ 54.9, largest of the three."""
    return load_dataset("friendster", scale, seed)
