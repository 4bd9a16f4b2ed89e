"""Typed wrappers of ``_superstep.c``, the BSP engines' superstep bookkeeping.

The apps' arithmetic and every random draw stay in NumPy. Each wrapper is
one C pass; :func:`repro.utils.native.load` builds the file on first use,
in the span ``engine.kernels.build{cached}``. Callers pass checked ids;
:func:`census_build` checks the graph blocks it reads itself.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError, SimulationError
from repro.utils import native

#: argument types per function: P an address (or None), I an int64
_SIGNATURES = {"walk_live": "PIPPPPP", "walk_apply": "IPPPPIIIPPPPPPPPP",
               "uniform_slots": "PPPIPP", "arcs_sorted": "PPIPPIP", "census_scan": "IIPPIPPP",
               "census_group": "IIPPPIPPPP", "census_push": "PPPIPPIIP"}


@functools.lru_cache(maxsize=None)
def _library() -> ctypes.CDLL:
    """``_superstep.c``, built once per cache directory and loaded once per process."""
    lib = native.load(Path(__file__).with_name("_superstep.c"), "engine.kernels.build",
                      "engine kernel")
    for name, signature in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = [ctypes.c_void_p if c == "P" else ctypes.c_int64 for c in signature]
        fn.restype = ctypes.c_int64 if name in ("walk_apply", "census_group") else None
    return lib


def _ptr(a: np.ndarray | None) -> int | None:
    return None if a is None else a.ctypes.data


def walk_live(mask: np.ndarray, pos: np.ndarray, prev: np.ndarray):
    """``(idx, cur, prv)``: the walkers with ``mask`` set, in id order, with
    their positions and previous vertices."""
    idx, cur, prv = (np.empty(np.count_nonzero(mask), dtype=np.int64) for _ in range(3))
    _library().walk_live(_ptr(mask), mask.size, _ptr(pos), _ptr(prev), *map(_ptr, (idx, cur, prv)))
    return idx, cur, prv


def walk_apply(batch, idx, targets, terminated, parts, max_steps, load, counts, *,
               paths=None, visits=None, local=None) -> None:
    """Apply an app's step ``(targets, terminated)`` to the walkers ``idx``
    of ``batch``, adding it to ``load`` (per machine) and ``counts``
    (machines², row = source machine); see ``_superstep.c``."""
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    terminated = np.ascontiguousarray(terminated, dtype=bool)
    if targets.shape != idx.shape or terminated.shape != idx.shape:
        raise SimulationError(f"a walk step must return {idx.size} targets and flags")
    bad = _library().walk_apply(idx.size, _ptr(idx), _ptr(targets), _ptr(terminated), _ptr(parts),
                                parts.size, load.size, max_steps, *map(_ptr, (
                                    batch.pos, batch.prev, batch.steps, batch.alive, load, counts,
                                    paths, visits, local)))
    if bad >= 0:
        raise SimulationError(f"walker {idx[bad]} stepped to {targets[bad]}, not a vertex id")


def uniform_slots(indptr: np.ndarray, pos: np.ndarray, u: np.ndarray):
    """``(slots, dead)`` of a uniform step from each of ``pos`` with draw
    ``u``: ``indptr[p] + min(⌊u·deg⌋, deg − 1)``, slot 0 at dead ends."""
    slots, dead = np.empty(pos.size, dtype=np.int64), np.empty(pos.size, dtype=bool)
    _library().uniform_slots(_ptr(indptr), _ptr(pos), _ptr(u), pos.size, _ptr(slots), _ptr(dead))
    return slots, dead


def arcs_sorted(indptr: np.ndarray, indices: np.ndarray, src: np.ndarray, tgt: np.ndarray):
    """Whether row ``src[i]`` of a CSR with ascending rows holds ``tgt[i]``."""
    hit = np.empty(src.size, dtype=bool)
    _library().arcs_sorted(_ptr(indptr), _ptr(indices), indices.itemsize == 8, _ptr(src),
                           _ptr(tgt), src.size, _ptr(hit))
    return hit


def census_build(graph, parts: np.ndarray, m: int) -> dict:
    """Gemini's cut arcs grouped by (source machine, target vertex), groups
    in ascending order: two passes of an LSD counting sort over
    ``graph.iter_blocks()``, O(n + m + cut) time and O(n) memory besides
    the output. ``cut_src`` and ``cut_pair`` (``src_machine * m +
    dst_machine``) are per arc, ``group_starts`` and ``group_pair`` per group."""
    lib, n, at = _library(), graph.num_vertices, np.zeros(graph.num_vertices, dtype=np.int64)

    def scan(by_target):
        for start, stop, local, ids in graph.iter_blocks():
            local, ids = _census_block(start, stop, local, ids, n)
            lib.census_scan(start, stop, _ptr(local), _ptr(ids), ids.itemsize == 8, _ptr(parts),
                            _ptr(at), _ptr(by_target))

    scan(None)
    cut_src, cut_pair, starts, group_pair = (np.empty(int(at.sum()), np.int64) for _ in range(4))
    at[:] = np.cumsum(at) - at  # each target's first slot; its run's end after the scan
    scan(group_pair)  # the first pass's output, read by census_group before it is overwritten
    groups = lib.census_group(n, m, _ptr(parts), _ptr(at), _ptr(group_pair), cut_src.size,
                              *map(_ptr, (cut_src, cut_pair, starts, group_pair)))
    return {"cut_src": cut_src, "cut_pair": cut_pair, "group_starts": starts[:groups].copy(),
            "group_pair": group_pair[:groups].copy()}


def _census_block(start, stop, local, ids, n):
    """One ``iter_blocks`` block as ``census_scan`` reads it: int64 offsets
    within its ids and 4- or 8-byte ids in ``[0, n)``. A sharded graph's
    blocks are file contents, so anything else is a :class:`GraphFormatError`."""
    local, ids = np.ascontiguousarray(local, dtype=np.int64), np.ascontiguousarray(ids)
    if ids.dtype.kind not in "iu":
        raise GraphFormatError(f"rows [{start}, {stop}): neighbour ids of dtype {ids.dtype}")
    if ids.dtype not in (np.dtype(np.int32), np.dtype(np.int64)):
        ids = ids.astype(np.int64)
    if (not 0 <= start <= stop <= n or local.size != stop - start + 1
            or local.min() < 0 or local.max() > ids.size
            or (ids.size and (ids.min() < 0 or ids.max() >= n))):
        raise GraphFormatError(f"rows [{start}, {stop}): offsets or neighbour ids outside "
                               f"the graph of {n} vertices")
    return local, ids


def census_push(census: dict, active: np.ndarray, aggregate: bool, m: int) -> np.ndarray:
    """One push superstep's ``m × m`` message counts: one per cut arc with an
    active source, or, ``aggregate``, one per group with any."""
    active, counts = np.ascontiguousarray(active, dtype=bool), np.zeros(m * m, dtype=np.int64)
    cut_src, starts = census["cut_src"], census["group_starts"]
    _library().census_push(_ptr(active), _ptr(cut_src),
                           _ptr(census["cut_pair"]), cut_src.size, _ptr(starts),
                           _ptr(census["group_pair"]), starts.size, aggregate, _ptr(counts))
    return counts.reshape(m, m)
