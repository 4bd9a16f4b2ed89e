"""Out-of-core CSR storage: memory-mapped vertex-range shards.

:class:`CSRGraph` holds ``indptr``/``indices`` in single in-RAM
allocations, which caps every experiment near the machine's memory. This
module stores the same adjacency as fixed-size **vertex-range shards**
under a spill directory:

- ``meta.json`` — format version, vertex/arc counts, shard size, and the
  per-shard cumulative arc offsets (written last, atomically, so a torn
  build is detected as "no graph here" rather than a wrong graph);
- ``shard-00000.indptr.npy`` — the shard's *local* offsets (int64,
  ``local[0] == 0``, length ``shard_vertices + 1``);
- ``shard-00000.indices.npy`` — the shard's neighbour ids.

Shards are opened with ``np.load(mmap_mode="r")`` on demand and kept in
a small LRU (``max_open_shards``) so both resident memory *and mapped
address space* stay bounded — the scale-smoke CI job runs under a hard
``ulimit -v`` that a dense CSR build would blow through.

:class:`ShardedCSRGraph` exposes the :class:`CSRGraph` read surface
(``num_vertices``, ``degrees``, ``neighbors``, ``fingerprint``, edge
iteration) plus the blockwise API the kernels and engines consume:

- :meth:`~ShardedCSRGraph.iter_blocks` — shard-aligned
  ``(start, stop, local_indptr, indices_view)`` blocks, zero-copy views
  of the mapped arrays whenever a block covers a whole shard;
- :meth:`~ShardedCSRGraph.gather_block` — the buffered kernel's chunked
  adjacency gather, grouped by shard so each shard is touched once per
  chunk;
- :meth:`~ShardedCSRGraph.take_arcs` — flat arc-slot gather for the
  walker engines.

Only two O(n) arrays are ever materialised (``degrees`` and, lazily,
a global ``indptr`` for the walker engines — 8 bytes/vertex each); the
O(m) edge data never leaves the page cache's control. The deliberate
exception: the ``.indices`` property **raises**, so any code path that
would silently materialise the full edge array fails loudly instead.

:class:`ShardedCSRBuilder` constructs shards from an edge stream in
bounded memory: arcs are bucketed to per-shard temp files as they
arrive, then each bucket is counted, scattered and deduplicated in
bounded blocks at finalise time — through the intake and the rows
routine of :mod:`repro.graph.builder` that
:func:`~repro.graph.builder.from_edges` runs too, so a spilled build of
the same edge stream is content- and fingerprint-identical to the dense
build.

Telemetry (off by default, aggregate-only): ``graph.sharded.block_reads``
(blocks/shard-groups served), ``graph.sharded.bytes_mapped`` (bytes of
newly mapped shard files), ``graph.sharded.spill_writes`` (builder
bucket flushes + shard file writes), and the spans
``graph.sharded.add_edges`` / ``graph.sharded.finalize`` around the
builder's write path.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from repro import telemetry
from repro.errors import GraphFormatError
from repro.graph.builder import intake_edges, rows_from_keys
from repro.graph.csr import CSRGraph, _index_dtype, fingerprint_stream

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "ShardedCSRBuilder",
    "ShardedCSRGraph",
    "default_spill_root",
    "open_sharded",
    "spill_csr",
]

#: On-disk format tag; bump on any layout change.
SHARD_FORMAT = "sharded-csr/v1"
META_NAME = "meta.json"

#: Vertices per shard. 2^17 vertices keep a shard's indptr at 1 MiB and a
#: d̄=32 shard's indices near 16 MiB — large enough for sequential-scan
#: throughput, small enough that the LRU of open maps stays tens of MiB.
DEFAULT_SHARD_SIZE = 1 << 17

#: Default size of the open-shard LRU.
DEFAULT_MAX_OPEN = 8

#: Arcs per gather_block sub-slice — bounds the int64 slot-arithmetic
#: transients (≈28 B/arc) independently of how hub-heavy a chunk is.
_GATHER_CHUNK_ARCS = 1 << 20

_SPILL_DIR_ENV = "REPRO_SPILL_DIR"


def default_spill_root() -> Path:
    """Where auto-spilled graphs live: ``$REPRO_SPILL_DIR``, else
    ``$REPRO_CACHE_DIR/shards``, else ``~/.cache/repro-bpart/shards``."""
    env = os.environ.get(_SPILL_DIR_ENV, "").strip()
    if env:
        return Path(env).expanduser()
    cache = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if cache:
        return Path(cache).expanduser() / "shards"
    return Path.home() / ".cache" / "repro-bpart" / "shards"


def _shard_paths(directory: Path, shard: int) -> tuple[Path, Path]:
    return (
        directory / f"shard-{shard:05d}.indptr.npy",
        directory / f"shard-{shard:05d}.indices.npy",
    )


def _check_npy(path: Path, expected_len: int, expected_dtype: np.dtype) -> None:
    """Validate an ``.npy`` header + size without reading the data.

    Catches torn/partial shard writes: a truncated file, a wrong shape,
    or a foreign dtype all raise :class:`GraphFormatError` here rather
    than producing garbage adjacency later.
    """
    try:
        with open(path, "rb") as fh:
            version = np.lib.format.read_magic(fh)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
            else:
                raise GraphFormatError(f"{path}: unsupported .npy version {version}")
            data_start = fh.tell()
    except GraphFormatError:
        raise
    except Exception as exc:
        raise GraphFormatError(f"{path}: unreadable shard file ({exc})") from exc
    if fortran or len(shape) != 1 or shape[0] != expected_len:
        raise GraphFormatError(
            f"{path}: shard shape {shape} does not match metadata "
            f"(expected ({expected_len},)) — torn or foreign shard file"
        )
    if dtype != expected_dtype:
        raise GraphFormatError(
            f"{path}: shard dtype {dtype} != expected {expected_dtype}"
        )
    expected_bytes = data_start + expected_len * expected_dtype.itemsize
    actual = path.stat().st_size
    if actual < expected_bytes:
        raise GraphFormatError(
            f"{path}: truncated shard file ({actual} bytes, "
            f"expected {expected_bytes}) — torn write?"
        )


class ShardedCSRGraph:
    """Read-only CSR graph served from memory-mapped shard files.

    Open with :func:`open_sharded` (or construct directly from a shard
    directory). Exposes the :class:`CSRGraph` read API plus the
    blockwise scan/gather surface documented in the module docstring.

    Parameters
    ----------
    directory:
        Shard directory produced by :class:`ShardedCSRBuilder` or
        :func:`spill_csr`.
    max_open_shards:
        LRU capacity for open memory maps. Evicted maps are released
        (their address space is reclaimed once no views into them
        remain), so mapped bytes stay ≈ ``max_open_shards · shard_bytes``.
    validate:
        Check every shard file's header and size against the metadata at
        open time (cheap — no data is read).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        max_open_shards: int = DEFAULT_MAX_OPEN,
        validate: bool = True,
    ) -> None:
        self._dir = Path(directory)
        meta_path = self._dir / META_NAME
        if not meta_path.is_file():
            raise GraphFormatError(
                f"{self._dir}: not a shard directory (missing {META_NAME}; "
                "an interrupted build never writes it)"
            )
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise GraphFormatError(f"{meta_path}: unreadable metadata ({exc})") from exc
        if meta.get("format") != SHARD_FORMAT:
            raise GraphFormatError(
                f"{meta_path}: format {meta.get('format')!r} != {SHARD_FORMAT!r}"
            )
        try:
            self._n = int(meta["num_vertices"])
            self._m = int(meta["num_arcs"])
            self._directed = bool(meta["directed"])
            self._shard_size = int(meta["shard_size"])
            self._num_shards = int(meta["num_shards"])
            self._edge_offsets = np.asarray(meta["edge_offsets"], dtype=np.int64)
            self._index_dtype = np.dtype(meta["index_dtype"])
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphFormatError(f"{meta_path}: incomplete metadata ({exc})") from exc
        expected_shards = -(-self._n // self._shard_size) if self._n else 0
        if (
            self._num_shards != expected_shards
            or self._edge_offsets.size != self._num_shards + 1
            or (self._edge_offsets.size and self._edge_offsets[-1] != self._m)
        ):
            raise GraphFormatError(f"{meta_path}: inconsistent shard metadata")
        self._max_open = max(1, int(max_open_shards))
        self._open: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._degrees: np.ndarray | None = None
        self._indptr: np.ndarray | None = None
        self._fingerprint: str | None = None
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every shard file against the metadata (headers only)."""
        for shard in range(self._num_shards):
            indptr_path, indices_path = _shard_paths(self._dir, shard)
            lo = shard * self._shard_size
            hi = min(lo + self._shard_size, self._n)
            arcs = int(self._edge_offsets[shard + 1] - self._edge_offsets[shard])
            _check_npy(indptr_path, hi - lo + 1, np.dtype(np.int64))
            _check_npy(indices_path, arcs, self._index_dtype)

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of stored arcs ``m`` (undirected edges count twice)."""
        return self._m

    @property
    def num_undirected_edges(self) -> int:
        """Number of logical edges: ``m / 2`` for undirected graphs."""
        return self._m if self._directed else self._m // 2

    @property
    def directed(self) -> bool:
        """Whether the graph is genuinely directed."""
        return self._directed

    @property
    def avg_degree(self) -> float:
        """Average out-degree ``m / n``."""
        return float(self._m) / self._n if self._n else 0.0

    @property
    def shard_size(self) -> int:
        """Vertices per shard (the block-alignment unit)."""
        return self._shard_size

    @property
    def num_shards(self) -> int:
        """Number of shard files."""
        return self._num_shards

    @property
    def spill_dir(self) -> Path:
        """The backing shard directory."""
        return self._dir

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (assembled once from the shard
        indptrs — the one O(n) array the representation requires)."""
        if self._degrees is None:
            out = np.empty(self._n, dtype=np.int64)
            for shard in range(self._num_shards):
                local, _ = self._shard(shard)
                lo = shard * self._shard_size
                out[lo : lo + local.size - 1] = np.diff(local)
            out.setflags(write=False)
            self._degrees = out
        return self._degrees

    @property
    def indptr(self) -> np.ndarray:
        """Global CSR offsets, lazily assembled (8 bytes/vertex).

        Kept for consumers that address arcs by flat slot (walker
        engines); per-vertex adjacency itself stays in the
        shards — pair this with :meth:`take_arcs`.
        """
        if self._indptr is None:
            out = np.zeros(self._n + 1, dtype=np.int64)
            np.cumsum(self.degrees, out=out[1:])
            out.setflags(write=False)
            self._indptr = out
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Disallowed: would materialise the full O(m) edge array."""
        raise GraphFormatError(
            "ShardedCSRGraph does not materialise a global indices array; "
            "use iter_blocks()/gather_block()/take_arcs() instead"
        )

    def fingerprint(self) -> str:
        """Content hash, byte-identical to the equivalent dense
        :meth:`CSRGraph.fingerprint` — computed incrementally from the
        shards (O(shard) memory), so artifact-cache entries are shared
        across representations without loading the graph."""
        if self._fingerprint is None:
            self._fingerprint = fingerprint_stream(
                self._directed,
                self._n,
                self._global_indptr_chunks(),
                self._indices_chunks(),
            )
        return self._fingerprint

    def _global_indptr_chunks(self) -> Iterator[np.ndarray]:
        # Reconstruct the dense graph's global indptr chunk by chunk:
        # leading 0, then each shard's local[1:] shifted by its offset.
        yield np.zeros(1, dtype=np.int64)
        for shard in range(self._num_shards):
            local, _ = self._shard(shard)
            yield local[1:] + self._edge_offsets[shard]

    def _indices_chunks(self) -> Iterator[np.ndarray]:
        for shard in range(self._num_shards):
            _, indices = self._shard(shard)
            yield indices

    # ------------------------------------------------------------------
    # Shard cache
    # ------------------------------------------------------------------
    def _shard(self, shard: int) -> tuple[np.ndarray, np.ndarray]:
        """Mapped ``(local_indptr, indices)`` of one shard (LRU-cached)."""
        cached = self._open.get(shard)
        if cached is not None:
            self._open.move_to_end(shard)
            return cached
        indptr_path, indices_path = _shard_paths(self._dir, shard)
        try:
            local = np.load(indptr_path, mmap_mode="r")
            indices = np.load(indices_path, mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise GraphFormatError(
                f"{self._dir}: cannot map shard {shard} ({exc})"
            ) from exc
        expected_n = min(self._shard_size, self._n - shard * self._shard_size) + 1
        expected_m = int(self._edge_offsets[shard + 1] - self._edge_offsets[shard])
        if local.ndim != 1 or local.size != expected_n or indices.size != expected_m:
            raise GraphFormatError(
                f"{self._dir}: shard {shard} shape mismatch — torn write?"
            )
        if telemetry.enabled():
            telemetry.active().counter("graph.sharded.bytes_mapped").inc(
                int(local.nbytes + indices.nbytes)
            )
        self._open[shard] = (local, indices)
        while len(self._open) > self._max_open:
            self._open.popitem(last=False)
            if telemetry.enabled():
                telemetry.active().counter("graph.sharded.evictions").inc()
        return local, indices

    def close(self) -> None:
        """Drop all cached memory maps (views already handed out stay
        valid; they keep their map alive until released)."""
        self._open.clear()

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbours of ``v`` — a zero-copy view into its shard."""
        v = int(v)
        if not 0 <= v < self._n:
            raise IndexError(f"vertex {v} out of range [0, {self._n})")
        local, indices = self._shard(v // self._shard_size)
        off = v - (v // self._shard_size) * self._shard_size
        return indices[local[off] : local[off + 1]]

    def degree(self, v: int) -> int:
        """Out-degree of a single vertex."""
        return int(self.degrees[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether arc ``u→v`` exists (binary search; neighbours sorted)."""
        nbrs = self.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < nbrs.size and nbrs[i] == v

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate ``(u, v)`` arcs. For tests and tiny graphs only."""
        for start, stop, local, indices in self.iter_blocks():
            for u in range(start, stop):
                for v in indices[local[u - start] : local[u - start + 1]]:
                    yield u, int(v)

    def iter_blocks(
        self, block_size: int | None = None
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield ``(start, stop, local_indptr, indices_view)`` blocks.

        Blocks are **shard-aligned**: a block never spans two shards, so
        every yielded ``indices_view`` is a view of a single mapped file
        (zero-copy; whole-shard blocks also reuse the mapped local
        indptr as-is). Default ``block_size`` is the shard size.
        """
        if self._n == 0:
            return
        step = self._shard_size if block_size is None else int(block_size)
        if step <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        emit = telemetry.enabled()
        for shard in range(self._num_shards):
            local, indices = self._shard(shard)
            lo = shard * self._shard_size
            shard_n = local.size - 1
            for s in range(0, shard_n, step):
                e = min(s + step, shard_n)
                if s == 0 and e == shard_n:
                    block_local, block_indices = local, indices
                else:
                    base = int(local[s])
                    block_local = local[s : e + 1] - base
                    block_indices = indices[base : base + int(block_local[-1])]
                if emit:
                    telemetry.active().counter("graph.sharded.block_reads").inc()
                yield lo + s, lo + e, block_local, block_indices

    def gather_block(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency gather for one chunk of (arbitrary) vertices.

        Returns ``(lens, nbrs)``: ``lens[i]`` is ``deg(vertices[i])`` and
        ``nbrs`` concatenates the neighbour lists in chunk order —
        exactly the shape the buffered kernel's resolver consumes. The
        chunk is grouped by shard so each shard is mapped and touched
        once, whatever order the stream visits vertices in.
        """
        chunk = np.asarray(vertices, dtype=np.int64)
        lens = self.degrees[chunk]
        total = int(lens.sum())
        out = np.empty(total, dtype=self._index_dtype)
        if total == 0:
            return lens, out
        first = np.concatenate(([0], np.cumsum(lens)[:-1]))
        shard_of = chunk // self._shard_size
        groups = 0
        for shard in np.unique(shard_of):
            sel = np.flatnonzero(shard_of == shard)
            g_lens = lens[sel]
            g_total = int(g_lens.sum())
            if g_total == 0:
                continue
            local, indices = self._shard(int(shard))
            starts = local[chunk[sel] - int(shard) * self._shard_size]
            # Sub-slice the group on an arc budget: the slot arithmetic
            # below builds three int64 arrays of the slice's arc count,
            # and a hub-heavy chunk (power-law head) can hold a double-
            # digit share of *all* arcs — unbounded, that transient
            # dwarfs the output and busts address-space budgets the
            # output itself fits in. Values written are identical.
            bounds = np.searchsorted(
                np.cumsum(g_lens),
                np.arange(_GATHER_CHUNK_ARCS, g_total, _GATHER_CHUNK_ARCS),
                side="left",
            )
            cuts = [0, *(int(b) + 1 for b in bounds), sel.size]
            for a, b in zip(cuts[:-1], cuts[1:]):
                if a >= b:
                    continue
                s_lens = g_lens[a:b]
                s_total = int(s_lens.sum())
                if s_total == 0:
                    continue
                s_first = np.concatenate(([0], np.cumsum(s_lens)[:-1]))
                span = np.arange(s_total, dtype=np.int64)
                src_slots = np.repeat(starts[a:b] - s_first, s_lens) + span
                dst_slots = np.repeat(first[sel[a:b]] - s_first, s_lens) + span
                out[dst_slots] = indices[src_slots]
            groups += 1
        if telemetry.enabled():
            telemetry.active().counter("graph.sharded.block_reads").inc(groups)
        return lens, out

    def take_arcs(self, slots: np.ndarray) -> np.ndarray:
        """Neighbour ids at global arc slots (``indices[slots]`` of the
        dense representation), grouped by shard."""
        flat = np.asarray(slots, dtype=np.int64).ravel()
        out = np.empty(flat.size, dtype=self._index_dtype)
        if flat.size == 0:
            return out
        shard_of = np.searchsorted(self._edge_offsets, flat, side="right") - 1
        np.clip(shard_of, 0, max(self._num_shards - 1, 0), out=shard_of)
        for shard in np.unique(shard_of):
            sel = shard_of == shard
            _, indices = self._shard(int(shard))
            out[sel] = indices[flat[sel] - int(self._edge_offsets[shard])]
        return out.reshape(np.asarray(slots).shape)

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        # Content equality across representations via the (cached)
        # fingerprint — this is what lets an engine accept an assignment
        # computed on the dense twin of a sharded graph.
        if isinstance(other, (ShardedCSRGraph, CSRGraph)):
            return self.directed == other.directed and (
                self.fingerprint() == other.fingerprint()
            )
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        return (
            f"ShardedCSRGraph(n={self._n}, arcs={self._m}, {kind}, "
            f"shards={self._num_shards}×{self._shard_size}, dir={str(self._dir)!r})"
        )


def open_sharded(
    directory: str | os.PathLike, **kwargs
) -> ShardedCSRGraph:
    """Open an existing shard directory (validating every shard file)."""
    return ShardedCSRGraph(directory, **kwargs)


#: Arcs per bucket read, and per dedup block, during finalize. Bounds
#: the transient working set of :func:`_write_shard` so a hub-heavy
#: bucket (power-law graphs concentrate a large arc fraction in the
#: lowest shard) never needs a single bucket-sized int64 allocation.
_BUCKET_CHUNK_ARCS = 1 << 19


def _bucket_chunks(path: Path) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(src, dst)`` views of a bucket file, ``_BUCKET_CHUNK_ARCS`` at a time."""
    with open(path, "rb") as fh:
        while True:
            chunk = np.fromfile(fh, dtype=np.int64, count=2 * _BUCKET_CHUNK_ARCS)
            if not chunk.size:
                return
            yield chunk[0::2], chunk[1::2]


def _write_shard(
    directory: Path, shard: int, lo: int, hi: int, n: int, index_dtype: np.dtype
) -> int:
    """Sort/dedup one bucket file into its shard ``.npy`` pair.

    The unit of work of :meth:`ShardedCSRBuilder.finalize` — a pure
    function of the bucket file's bytes. Returns the shard's arc count;
    the bucket file is left in place (the caller unlinks it only once
    the shard files are written, so a crashed finalize is retryable —
    ``np.save`` overwrites are idempotent).

    Three bounded passes, none of them per vertex:

    1. **count** — ``bincount`` the sources of each chunk; the running
       sum gives every source's segment ``starts`` (duplicates included).
    2. **scatter** — per chunk, sort the composite key
       ``(src - lo)·n + dst`` in place and place the chunk's sorted
       destinations (narrowed to ``index_dtype``) behind each source's
       cursor.
    3. **dedup** — walk runs of whole sources whose segments fit
       ``_BUCKET_CHUNK_ARCS``: rebuild the keys of one run, turn them
       into rows (:func:`~repro.graph.builder.rows_from_keys`) and
       compact the survivors leftwards over the same array.

    Peak memory is one ``index_dtype`` arc array plus int64 transients
    of O(``_BUCKET_CHUNK_ARCS``) — not 3–4 int64 copies of the bucket —
    which is what lets finalize run under an address-space budget that
    the bucket itself exceeds. (A single source that alone exceeds the
    budget is its own run and is sorted in ``index_dtype``.) The result
    is byte-identical to a global stable ``(src, dst)`` sort with
    adjacent dedup: both reduce to "sorted unique destinations per
    source", which has one encoding.
    """
    bucket_path = directory / f"bucket-{shard:07d}.tmp"
    width = hi - lo
    starts = np.zeros(width + 1, dtype=np.int64)
    total = 0
    if bucket_path.exists():
        nbytes = bucket_path.stat().st_size
        if nbytes % 16:
            raise GraphFormatError(
                f"{bucket_path}: torn bucket file (odd element count)"
            )
        total = nbytes // 16
    indices = np.empty(total, dtype=index_dtype)
    degrees = np.zeros(width, dtype=np.int64)
    write = 0
    if total:
        counts = np.zeros(width, dtype=np.int64)
        for src, _ in _bucket_chunks(bucket_path):
            counts += np.bincount(src - lo, minlength=width)
        np.cumsum(counts, out=starts[1:])
        # First key of every local source; searching them in a sorted
        # key array splits it by source without dividing.
        row_keys = np.arange(width + 1, dtype=np.int64) * n
        cursor = starts[:-1].copy()
        for src, dst in _bucket_chunks(bucket_path):
            key = src - lo
            key *= n
            key += dst
            key.sort()
            bounds = np.searchsorted(key, row_keys)
            ccounts = np.diff(bounds)
            slot = np.arange(key.size, dtype=np.int64)
            slot += np.repeat(cursor - bounds[:-1], ccounts)
            key -= np.repeat(row_keys[:-1], ccounts)
            indices[slot] = key
            cursor += ccounts
        a = 0
        while a < width:
            limit = starts[a] + _BUCKET_CHUNK_ARCS
            b = max(a + 1, int(np.searchsorted(starts, limit, side="right")) - 1)
            segment = indices[starts[a] : starts[b]]
            if b - a == 1:
                kept = np.unique(segment)
                degrees[a] = kept.size
            else:
                key = np.repeat(row_keys[: b - a], counts[a:b])
                key += segment
                degrees[a:b], kept = rows_from_keys(key, row_keys[: b - a + 1])
            indices[write : write + kept.size] = kept
            write += kept.size
            a = b
    local = np.zeros(width + 1, dtype=np.int64)
    np.cumsum(degrees, out=local[1:])
    indptr_path, indices_path = _shard_paths(directory, shard)
    np.save(indptr_path, local)
    np.save(indices_path, indices[:write])
    return int(write)


def _write_meta(
    directory: Path,
    n: int,
    directed: bool,
    shard_size: int,
    edge_offsets: list[int],
    index_dtype: np.dtype,
) -> None:
    """Write ``meta.json`` atomically — the last step of every build."""
    meta = {
        "format": SHARD_FORMAT,
        "num_vertices": int(n),
        "num_arcs": int(edge_offsets[-1]),
        "directed": bool(directed),
        "shard_size": int(shard_size),
        "num_shards": len(edge_offsets) - 1,
        "edge_offsets": edge_offsets,
        "index_dtype": index_dtype.name,
    }
    tmp = directory / (META_NAME + ".tmp")
    tmp.write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")
    os.replace(tmp, directory / META_NAME)


class ShardedCSRBuilder:
    """Build a shard directory from an edge stream in bounded memory.

    Arcs are appended to per-shard bucket files as raw int64 pairs while
    edges stream in (self-loops dropped and undirected input symmetrised
    by :func:`~repro.graph.builder.intake_edges`); at
    :meth:`finalize` each bucket — O(m / num_shards) arcs — is counted,
    scattered into per-source segments and deduplicated block by block
    (:func:`_write_shard`), then written out as the shard's ``.npy``
    pair. Peak memory is one bucket's ``index_dtype`` arc array plus
    O(``_BUCKET_CHUNK_ARCS``) transients, never the graph.

    Constructing a builder **claims the directory**: a ``meta.json`` and
    any ``bucket-*.tmp`` left there by an earlier (crashed) build are
    removed first, so a retry never merges stale arcs.

    Parameters
    ----------
    directory:     target shard directory (created if missing).
    num_vertices:  vertex count; inferred as ``max id + 1`` when omitted.
    shard_size:    vertices per shard.
    directed:      as for :func:`from_edges`.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        num_vertices: int | None = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        directed: bool = False,
    ) -> None:
        if shard_size <= 0:
            raise GraphFormatError(f"shard_size must be positive, got {shard_size}")
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._shard_size = int(shard_size)
        self._n = None if num_vertices is None else int(num_vertices)
        if self._n is not None and self._n < 0:
            raise GraphFormatError(f"num_vertices must be >= 0, got {num_vertices}")
        self._directed = bool(directed)
        self._max_id = -1
        self._buckets: dict[int, IO[bytes]] = {}
        self._finalized = False
        # Clean on construct: a crashed build's buckets would be merged
        # into this one (a shard that gets no arcs this time never
        # truncates its old bucket), and its meta.json would keep a
        # half-rewritten directory openable. Meta goes first.
        (self._dir / META_NAME).unlink(missing_ok=True)
        self.abort()

    def _bucket_path(self, bucket: int) -> Path:
        return self._dir / f"bucket-{bucket:07d}.tmp"

    def add_edges(self, src, dst) -> None:
        """Append a batch of edges given as parallel arrays."""
        if self._finalized:
            raise GraphFormatError("builder already finalized")
        s, d, batch_max = intake_edges(src, dst, self._n, directed=self._directed)
        self._max_id = max(self._max_id, batch_max)
        if s.size == 0:
            return
        # Bucket ids narrowed to their smallest dtype: NumPy's stable
        # argsort radix-sorts keys of 16 bits or fewer.
        bucket = (s // self._shard_size).astype(
            np.min_scalar_type(batch_max // self._shard_size)
        )
        with telemetry.active().span("graph.sharded.add_edges", arcs=int(s.size)):
            order = np.argsort(bucket, kind="stable")
            pairs = np.empty((s.size, 2), dtype=np.int64)
            pairs[:, 0] = s[order]
            pairs[:, 1] = d[order]
            counts = np.bincount(bucket)
            stops = np.cumsum(counts)
            emit = telemetry.enabled()
            for bid in np.flatnonzero(counts).tolist():
                fh = self._buckets.get(bid)
                if fh is None:
                    fh = open(self._bucket_path(bid), "wb")
                    self._buckets[bid] = fh
                pairs[stops[bid] - counts[bid] : stops[bid]].tofile(fh)
                if emit:
                    telemetry.active().counter("graph.sharded.spill_writes").inc()

    def add_edge(self, u: int, v: int) -> None:
        """Append a single edge (convenience for tests)."""
        self.add_edges(np.array([u], dtype=np.int64), np.array([v], dtype=np.int64))

    def finalize(self, *, validate: bool = True) -> ShardedCSRGraph:
        """Sort/dedup each bucket, write shards + metadata, open graph.

        Shards are written one after another (see :func:`_write_shard`
        for the bounded-memory passes); each bucket file is unlinked
        only after its shard pair is on disk, and ``meta.json`` is
        written last, atomically — a crash anywhere leaves "no graph
        here", and a new builder on the same directory starts clean.
        """
        if self._finalized:
            raise GraphFormatError("builder already finalized")
        for fh in self._buckets.values():
            fh.close()
        self._buckets.clear()
        n = self._n if self._n is not None else self._max_id + 1
        n = max(n, 0)
        if min(self._shard_size, n) * n >= 2**63:
            raise GraphFormatError(
                f"shard_size={self._shard_size} x num_vertices={n} overflows the "
                "int64 (source, destination) sort key; use smaller shards"
            )
        num_shards = -(-n // self._shard_size) if n else 0
        index_dtype = _index_dtype(max(n, 1))
        emit = telemetry.enabled()
        edge_offsets = [0]
        with telemetry.active().span("graph.sharded.finalize", shards=num_shards):
            for shard in range(num_shards):
                lo = shard * self._shard_size
                hi = min(lo + self._shard_size, n)
                arcs = _write_shard(self._dir, shard, lo, hi, n, index_dtype)
                edge_offsets.append(edge_offsets[-1] + arcs)
                self._bucket_path(shard).unlink(missing_ok=True)
                if emit:
                    telemetry.active().counter("graph.sharded.spill_writes").inc(2)
            _write_meta(
                self._dir, n, self._directed, self._shard_size,
                edge_offsets, index_dtype,
            )
        self._finalized = True
        return ShardedCSRGraph(self._dir, validate=validate)

    def abort(self) -> None:
        """Close and remove any bucket temp files (failed build cleanup)."""
        for fh in self._buckets.values():
            try:
                fh.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        self._buckets.clear()
        for path in self._dir.glob("bucket-*.tmp"):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


def spill_csr(
    graph: CSRGraph,
    directory: str | os.PathLike,
    *,
    shard_size: int = DEFAULT_SHARD_SIZE,
    validate: bool = True,
) -> ShardedCSRGraph:
    """Re-encode an in-RAM :class:`CSRGraph` as a shard directory.

    Pure slicing — the adjacency content (and therefore the fingerprint)
    is identical to the source graph. Used by parity tests and by the
    scale bench's control cells.
    """
    if shard_size <= 0:
        raise GraphFormatError(f"shard_size must be positive, got {shard_size}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n = graph.num_vertices
    num_shards = -(-n // shard_size) if n else 0
    indptr, indices = graph.indptr, graph.indices
    edge_offsets = [0]
    emit = telemetry.enabled()
    for shard in range(num_shards):
        lo = shard * shard_size
        hi = min(lo + shard_size, n)
        base = int(indptr[lo])
        local = (indptr[lo : hi + 1] - base).astype(np.int64)
        indptr_path, indices_path = _shard_paths(directory, shard)
        np.save(indptr_path, local)
        np.save(indices_path, indices[base : int(indptr[hi])])
        edge_offsets.append(int(indptr[hi]))
        if emit:
            telemetry.active().counter("graph.sharded.spill_writes").inc(2)
    _write_meta(directory, n, graph.directed, shard_size, edge_offsets, indices.dtype)
    return ShardedCSRGraph(directory, validate=validate)
