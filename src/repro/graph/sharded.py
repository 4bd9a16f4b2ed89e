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
- :attr:`~ShardedCSRGraph.table` — every shard as one block of the table
  each C reader takes (``utils/_graph.h``), built on first use: every
  shard is then mapped once and held, past the LRU, until ``close()``;
- :meth:`~ShardedCSRGraph.tables` — a stream cut into runs for the C
  partition loop: natural order a shard at a time, within the LRU;
- :meth:`~ShardedCSRGraph.take_arcs` — flat arc-slot gather.

Only two O(n) arrays are ever materialised (``degrees`` and, lazily,
a global ``indptr`` for the walker engines — 8 bytes/vertex each); the
O(m) edge data never leaves the page cache's control. The deliberate
exception: the ``.indices`` property **raises**, so any code path that
would silently materialise the full edge array fails loudly instead.

:class:`ShardedCSRBuilder` constructs shards from an edge stream in
bounded memory: arcs are bucketed to per-shard temp files as they
arrive, each source's arcs counted on the way, then each bucket is
scattered into those counts and deduplicated in bounded blocks at
finalise time — through the intake and the rows routine of
:mod:`repro.graph.builder` that :func:`~repro.graph.builder.from_edges`
runs too, so a spilled build of the same edge stream is content- and
fingerprint-identical to the dense build.

Telemetry (off by default, aggregate-only): ``graph.sharded.block_reads``
(blocks ``iter_blocks`` served), ``graph.sharded.bytes_mapped`` (bytes of
newly mapped shard files), ``graph.sharded.spill_writes`` (builder
bucket flushes + shard file writes), and the spans
``graph.sharded.add_edges`` / ``graph.sharded.finalize`` around the
builder's write path.
"""

from __future__ import annotations

import json
import mmap
import os
from collections import OrderedDict
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from repro import telemetry
from repro.errors import GraphFormatError
from repro.graph.builder import intake_edges, rows_from_keys
from repro.graph.csr import CSRGraph, _index_dtype, fingerprint_stream
from repro.utils import native

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


def _check_npy(path: Path, expected_len: int, expected_dtype: np.dtype) -> int:
    """Validate an ``.npy`` header + size without reading the data; returns where it starts.

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
    return data_start


class ShardedCSRGraph:
    """Read-only CSR graph served from memory-mapped shard files.

    Open with :func:`open_sharded` (or construct directly from a shard
    directory). Exposes the :class:`CSRGraph` read API plus the
    blockwise scan surface and C readers' table documented in the module docstring.

    Parameters
    ----------
    directory:
        Shard directory produced by :class:`ShardedCSRBuilder` or
        :func:`spill_csr`.
    max_open_shards:
        LRU capacity for open memory maps. Evicted maps are released
        (their address space is reclaimed once no views into them
        remain), so mapped bytes stay ≈ ``max_open_shards · shard_bytes``
        until a C reader builds :attr:`table`, which holds every shard.
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
        self._table: native.Table | None = None
        self._maps: list[tuple[np.ndarray, np.ndarray]] | None = None  # the table's, unwidened
        self._data_at: dict[Path, int] = {}  # each shard file's data offset, once checked
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
            self._data_at[indptr_path] = _check_npy(indptr_path, hi - lo + 1, np.dtype(np.int64))
            self._data_at[indices_path] = _check_npy(indices_path, arcs, self._index_dtype)

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

        Kept for consumers that address arcs by flat slot (the serving
        demand plan); per-vertex adjacency itself stays in the
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
            "use iter_blocks()/take_arcs() or the C readers' table instead"
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
        """Mapped ``(local_indptr, indices)`` of one shard (the held table's, else LRU-cached)."""
        if self._maps is not None:
            return self._maps[shard]
        cached = self._open.get(shard)
        if cached is not None:
            self._open.move_to_end(shard)
            return cached
        self._open[shard] = maps = self._map_shard(shard)
        while len(self._open) > self._max_open:
            self._open.popitem(last=False)
            if telemetry.enabled():
                telemetry.active().counter("graph.sharded.evictions").inc()
        return maps

    def _map_shard(self, shard: int) -> tuple[np.ndarray, np.ndarray]:
        indptr_path, indices_path = _shard_paths(self._dir, shard)
        rows = min(self._shard_size, self._n - shard * self._shard_size) + 1
        arcs = int(self._edge_offsets[shard + 1] - self._edge_offsets[shard])
        try:
            local = self._map(indptr_path, rows, np.dtype(np.int64))
            indices = self._map(indices_path, arcs, self._index_dtype)
        except (OSError, ValueError) as exc:
            raise GraphFormatError(f"{self._dir}: cannot map shard {shard} ({exc})") from exc
        if telemetry.enabled():
            telemetry.active().counter("graph.sharded.bytes_mapped").inc(local.nbytes + indices.nbytes)
        return local, indices

    @property
    def table(self) -> native.Table:
        """Every shard as one block of the table each C reader takes, built on first use: a
        shard not open in the LRU is mapped then, once, past it, and all are held until
        :meth:`close`."""
        if self._table is None:
            self._maps = [self._open.get(s) or self._map_shard(s) for s in range(self._num_shards)]
            self._table = native.Table(self._maps)
        return self._table

    def tables(self, stream: np.ndarray) -> Iterator[tuple[np.ndarray, native.Table]]:
        """``(run, table)``: ``stream`` cut into runs, each read through one table. An
        ascending stream of ids in ``[0, n)`` (natural order) is a run per shard, read through
        that shard's block in the LRU, so it keeps within ``max_open_shards``; any other, or
        any once :attr:`table` is held, is one run through :attr:`table`."""
        if self._maps is not None or not stream.size or stream[0] < 0 or stream[-1] >= self._n \
                or (stream[1:] < stream[:-1]).any():
            return iter([(stream, self.table)])
        at = np.searchsorted(stream, np.arange(self._num_shards + 1) * self._shard_size).tolist()
        return ((stream[at[s] : at[s + 1]], native.Table([self._shard(s)], first=s * self._shard_size))
                for s in range(self._num_shards) if at[s] < at[s + 1])

    def _map(self, path: Path, count: int, dtype: np.dtype) -> np.ndarray:
        """A read-only memory map of a shard file's ``count`` values (its header checked once)."""
        at = self._data_at.get(path)
        if at is None:
            at = self._data_at[path] = _check_npy(path, count, dtype)
        with open(path, "rb") as fh:
            return np.frombuffer(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ), dtype, count, at)

    def close(self) -> None:
        """Drop all cached memory maps and the table (views and tables already handed out stay
        valid; they keep their maps alive until released); the next C reader rebuilds it."""
        self._open.clear()
        self._table = self._maps = None

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

    def iter_blocks(self) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield ``(start, stop, local_indptr, indices_view)`` blocks.

        One block per shard, so a block never spans two shards: each
        yielded pair is the shard's mapped local indptr and indices
        as-is (zero-copy).
        """
        if self._n == 0:
            return
        emit = telemetry.enabled()
        for shard in range(self._num_shards):
            local, indices = self._shard(shard)
            lo = shard * self._shard_size
            if emit:
                telemetry.active().counter("graph.sharded.block_reads").inc()
            yield lo, lo + local.size - 1, local, indices

    def take_arcs(self, slots: np.ndarray) -> np.ndarray:
        """Neighbour ids at global arc slots (``indices[slots]`` of the
        dense representation), grouped by shard; a slot outside ``[0, m)``
        is an ``IndexError``."""
        flat = np.asarray(slots, dtype=np.int64).ravel()
        out = np.empty(flat.size, dtype=self._index_dtype)
        if flat.size and (flat.min() < 0 or flat.max() >= self._m):
            bad = flat[(flat < 0) | (flat >= self._m)][0]
            raise IndexError(f"arc slot {bad} outside [0, {self._m})")
        shard_of = np.searchsorted(self._edge_offsets, flat, side="right") - 1
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


def _bucket_chunks(path: Path) -> Iterator[np.ndarray]:
    """A bucket file's (source, target) pairs, ``_BUCKET_CHUNK_ARCS`` at a time."""
    with open(path, "rb") as fh:
        while (chunk := np.fromfile(fh, dtype=np.int64, count=2 * _BUCKET_CHUNK_ARCS)).size:
            yield chunk


def _write_shard(
    directory: Path, shard: int, lo: int, hi: int, n: int, index_dtype: np.dtype,
    counts: np.ndarray,
) -> int:
    """Sort/dedup one bucket file into its shard ``.npy`` pair; returns its arc count.

    A pure function of the bucket's bytes and ``counts`` (the arcs
    ``add_edges`` bucketed per source of ``[lo, hi)``), in two bounded
    passes, none of them per vertex in Python:

    1. **scatter** — ``scatter_rows`` (``_sample.c``) places each chunk's
       targets, narrowed to ``index_dtype``, behind their source's cursor
       in the segments ``counts`` lays out. Counts that do not sum to the
       bucket's arcs, or an arc outside the shard's sources, outside
       ``[0, n)`` or past its source's count, is a :class:`GraphFormatError`
       naming the bucket (so every cursor ends at its segment's end).
    2. **dedup** — runs of whole sources whose segments fit
       ``_BUCKET_CHUNK_ARCS`` become rows through
       :func:`~repro.graph.builder.rows_from_keys` (a source over the
       budget is its own run), compacted leftwards in place.

    Peak memory is one ``index_dtype`` arc array plus O(``_BUCKET_CHUNK_ARCS``)
    transients, so finalize fits an address-space budget the bucket
    itself exceeds. The bytes equal a global ``(src, dst)`` sort with
    adjacent dedup: "sorted unique destinations per source" has one
    encoding.
    """
    bucket_path = directory / f"bucket-{shard:07d}.tmp"
    width = hi - lo
    starts = np.zeros(width + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    nbytes = bucket_path.stat().st_size if bucket_path.exists() else 0
    if nbytes % 16:
        raise GraphFormatError(f"{bucket_path}: torn bucket file (odd element count)")
    if nbytes // 16 != starts[-1]:
        raise GraphFormatError(f"{bucket_path}: {nbytes // 16} arcs, add_edges counted {starts[-1]}")
    indices = np.empty(starts[-1], dtype=index_dtype)
    cursor = starts[:-1].copy()
    try:
        for chunk in _bucket_chunks(bucket_path) if nbytes else ():
            native.call("scatter_rows", chunk, chunk.size // 2, lo, cursor, starts[1:], n, indices)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{bucket_path}: {exc}") from None
    # the first key of every local source
    row_keys = np.arange(width + 1, dtype=np.int64) * n
    degrees = np.zeros(width, dtype=np.int64)
    a = write = 0
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
    by :func:`~repro.graph.builder.intake_edges`) and counted per source;
    at :meth:`finalize` each bucket — O(m / num_shards) arcs — is
    scattered into per-source segments and deduplicated block by block
    (:func:`_write_shard`), then written out as the shard's ``.npy``
    pair. Peak memory is 8 bytes a vertex of counts, one bucket's
    ``index_dtype`` arc array and O(``_BUCKET_CHUNK_ARCS``) transients,
    never the graph.

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
        self._counts = np.zeros(0, dtype=np.int64)  # arcs bucketed per source so far
        self._edge_offsets: list[int] | None = None  # set by finalize: no more edges
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
        if self._edge_offsets is not None:
            raise GraphFormatError("builder already finalized")
        s, d, batch_max = intake_edges(src, dst, self._n, directed=self._directed)
        self._max_id = max(self._max_id, batch_max)
        if s.size == 0:
            return
        with telemetry.active().span("graph.sharded.add_edges", arcs=int(s.size)):
            if batch_max >= self._counts.size:  # grown on demand, geometrically
                grow = max(batch_max + 1, 2 * self._counts.size) - self._counts.size
                self._counts = np.pad(self._counts, (0, grow))
            pairs = np.empty(2 * s.size, dtype=np.int64)
            at = np.empty(batch_max // self._shard_size + 3, dtype=np.int64)
            native.call("bucket_arcs", s, d, self._shard_size, at, pairs, self._counts)
            emit = telemetry.enabled()
            for bid in np.flatnonzero(np.diff(at[:-1])).tolist():
                fh = self._buckets.get(bid)
                if fh is None:
                    fh = open(self._bucket_path(bid), "wb")
                    self._buckets[bid] = fh
                pairs[2 * at[bid] : 2 * at[bid + 1]].tofile(fh)
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
        The first call seals the builder (no more ``add_edges``); a call
        after a failure resumes at the first shard not yet written.
        """
        if self._finalized:
            raise GraphFormatError("builder already finalized")
        n = max(self._n if self._n is not None else self._max_id + 1, 0)
        if min(self._shard_size, n) * n >= 2**63:
            raise GraphFormatError(
                f"shard_size={self._shard_size} x num_vertices={n} overflows the "
                "int64 (source, destination) sort key; use smaller shards"
            )
        if self._edge_offsets is None:
            for fh in self._buckets.values():
                fh.close()
            self._buckets.clear()
            self._edge_offsets = [0]
        edge_offsets = self._edge_offsets
        num_shards = -(-n // self._shard_size) if n else 0
        index_dtype = _index_dtype(max(n, 1))
        emit = telemetry.enabled()
        with telemetry.active().span("graph.sharded.finalize", shards=num_shards):
            for shard in range(len(edge_offsets) - 1, num_shards):
                lo = shard * self._shard_size
                hi = min(lo + self._shard_size, n)
                counts = self._counts[lo:hi]
                arcs = _write_shard(self._dir, shard, lo, hi, n, index_dtype,
                                    np.pad(counts, (0, hi - lo - counts.size)))
                edge_offsets.append(edge_offsets[-1] + arcs)
                self._bucket_path(shard).unlink(missing_ok=True)
                if emit:
                    telemetry.active().counter("graph.sharded.spill_writes").inc(2)
            _write_meta(self._dir, n, self._directed, self._shard_size, edge_offsets, index_dtype)
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
