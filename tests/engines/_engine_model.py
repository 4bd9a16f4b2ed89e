"""The reference model of the BSP engines' superstep bookkeeping.

This is the NumPy the engines ran before it moved into
``engines/_superstep.c``, line for line: ``ModelWalkEngine`` is
``WalkEngine`` with its old ``_advance`` and superstep bodies,
``uniform_slots`` is ``uniform_neighbor``'s slot arithmetic,
``arcs_exist_dense`` the sorted arc-key lookup (``CSRGraph.arc_keys``
inlined), and ``build_census`` / ``push_counts`` Gemini's argsort census
and its ``logical_or.reduceat`` / ``bincount`` push count.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.messages import TrafficMatrix
from repro.engines.knightking import WalkEngine
from repro.graph.csr import _index_dtype


class ModelWalkEngine(WalkEngine):
    """``WalkEngine`` stepping its walkers with the old NumPy bookkeeping."""

    def _superstep(self, graph, parts, m, batch, app, rng, max_steps, paths):
        body = self._superstep_sync if self._mode == "step_sync" else self._superstep_greedy
        return body(graph, parts, m, batch, app, rng, max_steps, paths)

    def _advance(self, graph, batch, idx, app, rng, max_steps, paths):
        new_pos, terminated = app.advance(graph, batch.pos[idx], batch.prev[idx], rng)
        return apply_step(batch, idx, new_pos, terminated, max_steps, paths, self._visits)

    def _superstep_sync(self, graph, parts, m, batch, app, rng, max_steps, paths):
        idx = np.nonzero(batch.alive)[0]
        home = parts[batch.pos[idx]]
        moved = self._advance(graph, batch, idx, app, rng, max_steps, paths)
        src_m = home[moved]
        counts = np.bincount(src_m * m + parts[batch.pos[idx[moved]]], minlength=m * m)
        steps_per_m = np.bincount(src_m, minlength=m).astype(np.float64)
        return steps_per_m, TrafficMatrix.from_counts(counts.reshape(m, m))

    def _superstep_greedy(self, graph, parts, m, batch, app, rng, max_steps, paths):
        steps_per_m = np.zeros(m, dtype=np.float64)
        counts = np.zeros(m * m, dtype=np.int64)
        local = batch.alive.copy()
        while local.any():
            idx = np.nonzero(local)[0]
            home = parts[batch.pos[idx]]
            moved = self._advance(graph, batch, idx, app, rng, max_steps, paths)
            steps_per_m += account(parts, m, batch, idx, home, moved, counts, local)
        return steps_per_m, TrafficMatrix.from_counts(counts.reshape(m, m))


def apply_step(batch, idx, new_pos, terminated, max_steps, paths=None, visits=None):
    """The old ``_advance`` after the app's draw: move, record, retire.
    Returns the mask (over ``idx``) of walkers that moved."""
    moved = ~terminated
    moved_idx = idx[moved]
    batch.prev[moved_idx] = batch.pos[moved_idx]
    batch.pos[moved_idx] = new_pos[moved]
    batch.steps[moved_idx] += 1
    if paths is not None and moved_idx.size:
        paths[moved_idx, batch.steps[moved_idx]] = batch.pos[moved_idx]
    if visits is not None and moved_idx.size:
        visits += np.bincount(batch.pos[moved_idx], minlength=visits.size)
    batch.alive[idx[terminated]] = False
    batch.alive[moved_idx] &= batch.steps[moved_idx] < max_steps
    return moved


def account(parts, m, batch, idx, home, moved, counts, local=None):
    """The old superstep bodies' charge for one round: adds the moves to
    ``counts``, clears ``local`` on a cross or a retire, returns the
    per-machine steps."""
    src_m = home[moved]
    dst_m = parts[batch.pos[idx[moved]]]
    counts += np.bincount(src_m * m + dst_m, minlength=m * m)
    if local is not None:
        crossed = np.zeros(idx.size, dtype=bool)
        crossed[moved] = dst_m != src_m
        local[idx[~batch.alive[idx]]] = False
        local[idx[crossed]] = False
    return np.bincount(src_m, minlength=m)


def uniform_slots(indptr, pos, u):
    """``uniform_neighbor``'s old ``(slots, dead)``."""
    deg = np.diff(indptr)[pos]
    dead = deg == 0
    offsets = (u * deg).astype(np.int64)
    slots = indptr[pos] + np.minimum(offsets, np.maximum(deg - 1, 0))
    slots[dead] = 0
    return slots, dead


def arcs_exist_dense(graph, src, tgt):
    """The old dense ``arcs_exist``: sorted query keys looked up in the arc keys."""
    n = graph.num_vertices
    dtype = _index_dtype(n * n)
    keys = np.repeat(np.arange(n, dtype=dtype) * dtype.type(n), graph.degrees)
    keys += graph.indices.astype(dtype, copy=False)
    if keys.size == 0:
        return np.zeros(src.size, dtype=bool)
    query = (src * n + tgt).astype(keys.dtype)
    order = np.argsort(query)
    query = query[order]
    slot = np.searchsorted(keys, query)
    hit = np.empty(src.size, dtype=bool)
    hit[order] = keys[np.minimum(slot, keys.size - 1)] == query
    return hit


def build_census(graph, parts, m):
    """The old ``_build_census``'s cut arcs, argsorted by (source machine,
    target); also returns each group's key ``source machine · n + target``."""
    n = np.int64(graph.num_vertices)
    src_chunks, dst_chunks = [], []
    for start, stop, local, idx in graph.iter_blocks():
        src = np.repeat(np.arange(start, stop, dtype=np.int64), np.diff(local))
        dst = idx.astype(np.int64, copy=False)
        cut = parts[src] != parts[dst]
        src_chunks.append(src[cut])
        dst_chunks.append(dst[cut])
    cut_src = np.concatenate(src_chunks) if src_chunks else np.empty(0, np.int64)
    cut_dst = np.concatenate(dst_chunks) if dst_chunks else np.empty(0, np.int64)
    src_part = parts[cut_src]
    key = src_part * n + cut_dst
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    cut_pair = (src_part * m + parts[cut_dst])[order]
    return {"cut_src": cut_src[order], "cut_pair": cut_pair, "group_starts": starts,
            "group_pair": cut_pair[starts], "group_key": key[starts]}


def push_counts(census, active, m):
    """The old push-mode message count."""
    starts = census["group_starts"]
    live_arc = active[census["cut_src"]]
    if starts.size:
        live_pairs = census["group_pair"][np.logical_or.reduceat(live_arc, starts)]
    else:
        live_pairs = starts
    return np.bincount(live_pairs, minlength=m * m).reshape(m, m)
