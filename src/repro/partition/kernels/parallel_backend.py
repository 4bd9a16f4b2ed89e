"""Multi-core streaming kernel: worker-scored chunks, exact resolution.

The streaming loop is inherently sequential — every assignment feeds the
next score — but the *expensive* part of the buffered kernel is not the
decision, it is gathering each chunk's neighbour-part overlap table.
This backend fans that scoring out over a
:class:`~repro.parallel.pool.WorkerPool` while the parent resolves
chunks strictly in stream order, and stays **bit-identical** to the
``buffered`` backend (hence to ``scalar``) via a window-masking
protocol:

- The parent shares ``stream``, the inverse permutation ``spos``
  (``spos[v]`` = v's stream position), the live ``parts`` vector and
  the adjacency (dense CSR arrays via shared memory; sharded graphs are
  re-opened from their spill directory, so shard pages are shared
  through the page cache) with every worker.
- A task is ``(chunk c, base f)`` where ``f`` is the last chunk the
  parent had resolved at dispatch time.  The worker counts only *safe*
  neighbours — stream positions outside chunks ``(f, c]`` — into the
  ``B×k`` overlap table, and reports the masked (window) neighbours as
  ``(owner, vertex, position)`` pull triples.  Safe positions are
  exactly the ones the parent cannot write while the task is in flight,
  so the racy shared read is race-free by construction.
- The parent patches each vertex's row at resolution time: a pull at a
  position already resolved this pass contributes its *current* part; a
  pull at a later position of the *same chunk* contributes the chunk's
  boundary snapshot.  That reproduces the buffered kernel's
  snapshot+fixup semantics exactly — the patched row is independent of
  ``f``, i.e. of worker scheduling.

The parent's own per-vertex loop is then the throughput ceiling
(Amdahl), so it takes a fast path: per chunk, the top-2 part scores
under the chunk-boundary penalty are precomputed vectorised, and a
vertex whose margin exceeds the worst-case penalty drift since the
boundary (``best − Δ_best > second − min Δ``, a strict bound) takes its
precomputed argmax in O(1) instead of re-scoring all ``k`` parts.  The
bound is conservative, so every fast-path decision equals the exact
loop's; anything marginal (ties, pulls, saturation, NaN/inf penalties,
re-stream passes) drops to the verbatim buffered slow path.

``jobs <= 1``, unavailable shared memory, or a failed spawn delegate to
:func:`~repro.partition.kernels.buffered.fennel_buffered` unchanged; a
worker death mid-run continues serially from the current frontier
(counted in ``parallel.fallbacks``) — the output is identical either
way.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.graph.csr import CSRGraph, gather_rows
from repro.parallel import (
    SharedArrayPool,
    WorkerCrash,
    WorkerPool,
    attach_array,
    note_fallback,
    resolve_jobs,
    shm_available,
)
from repro.partition.kernels.base import KernelBackend, pow_like_numpy, register_kernel
from repro.partition.kernels.buffered import fennel_buffered

__all__ = ["BACKEND", "DEFAULT_PARALLEL_CHUNK", "fennel_parallel"]

#: Chunk size for the parallel backend. Larger than the buffered
#: default: each task must amortise a pipe round-trip, and the exactness
#: protocol holds for any chunk size.
DEFAULT_PARALLEL_CHUNK = 1024

#: In-flight tasks per worker. Two keeps every worker busy while the
#: parent resolves, without letting stale-base windows grow.
_PIPELINE_DEPTH = 2

_NEG_INF = float("-inf")

_SCORE_TASK = "repro.partition.kernels.parallel_backend:_score_task"


# ----------------------------------------------------------------------
# Scoring (runs in workers; also the parent's serial-fallback scorer)
# ----------------------------------------------------------------------
def _score_chunk(gather, stream, spos, parts, c, base, chunk_size, k):
    """Overlap table + window pulls for chunk ``c`` scored at base ``f``.

    Returns ``(table, pull_owner, pull_vertex, pull_pos)``: ``table`` is
    the ``b×k`` count of *safe* assigned neighbours, and the pull arrays
    list every neighbour occurrence whose stream position lies in the
    masked window ``(f·B, (c+1)·B)`` — the parent resolves those against
    live state.
    """
    chunk = stream[c * chunk_size : (c + 1) * chunk_size]
    b = chunk.size
    lens, nbrs = gather(chunk)
    total = int(np.asarray(lens).sum())
    empty = np.empty(0, dtype=np.int64)
    if total == 0:
        return np.zeros((b, k), dtype=np.int64), empty, empty, empty
    owner = np.repeat(np.arange(b, dtype=np.int64), lens)
    nbrs = np.asarray(nbrs).astype(np.int64, copy=False)
    nbr_pos = spos[nbrs]
    window = (nbr_pos >= (base + 1) * chunk_size) & (nbr_pos < (c + 1) * chunk_size)
    safe = np.nonzero(~window)[0]
    nbr_parts = parts[nbrs[safe]].astype(np.int64, copy=False)
    valid = nbr_parts >= 0
    flat = np.bincount(owner[safe[valid]] * k + nbr_parts[valid], minlength=b * k)
    table = flat.reshape(b, k)
    widx = np.nonzero(window)[0]
    return table, owner[widx], nbrs[widx], nbr_pos[widx]


def _score_task(payload, state):  # pragma: no cover - runs in worker process
    """Worker task: open the session on first use, then score one chunk."""
    sessions = state.setdefault("kernel_sessions", {})
    sess = sessions.get(payload["sid"])
    if sess is None:
        setup = payload["setup"]
        sess = {
            "chunk_size": int(setup["chunk_size"]),
            "k": int(setup["k"]),
            "stream": attach_array(setup["stream"], state),
            "spos": attach_array(setup["spos"], state),
            "parts": attach_array(setup["parts"], state),
        }
        if setup["kind"] == "dense":
            graph = CSRGraph(attach_array(setup["indptr"], state),
                             attach_array(setup["indices"], state), validate=False)
        else:
            from repro.graph.sharded import ShardedCSRGraph

            graph = ShardedCSRGraph(setup["spill_dir"], validate=False)
        sess["gather"] = partial(gather_rows, graph)
        sessions[payload["sid"]] = sess
    return _score_chunk(
        sess["gather"],
        sess["stream"],
        sess["spos"],
        sess["parts"],
        payload["c"],
        payload["base"],
        sess["chunk_size"],
        sess["k"],
    )


def _group_pulls(pull_owner, pull_vertex, pull_pos):
    """Pull triples → dict mapping chunk offset to ``(position, vertex)``."""
    if pull_owner.size == 0:
        return None
    pulls: dict[int, list] = {}
    for i, u, pu in zip(pull_owner.tolist(), pull_vertex.tolist(), pull_pos.tolist()):
        entry = pulls.get(i)
        if entry is None:
            pulls[i] = [(pu, u)]
        else:
            entry.append((pu, u))
    return pulls


# ----------------------------------------------------------------------
# Parent-side pipeline
# ----------------------------------------------------------------------
def _run_parallel(resolver, setup_extra, stream, parts, jobs, chunk_size, k):
    """Dispatch chunks round-robin, resolve strictly in stream order.

    ``resolver`` owns the sequential scoring state; its
    ``resolve_chunk(c, chunk, table, pulls, sh_parts)`` applies one
    chunk and publishes assignments into the shared parts vector.  On
    worker death the pipeline drops to in-process scoring (base = c−1)
    and continues from the same frontier — the resolver never notices.
    """
    n = stream.shape[0]
    num_chunks = -(-n // chunk_size)
    spos = np.empty(n, dtype=np.int64)
    spos[stream] = np.arange(n, dtype=np.int64)
    stream64 = stream.astype(np.int64, copy=False)

    with SharedArrayPool() as shm:
        pool = None
        try:
            setup = {
                "chunk_size": chunk_size,
                "k": k,
                "stream": shm.share("stream", stream64),
                "spos": shm.share("spos", spos),
                "parts": shm.share("parts", parts),
            }
            setup.update(setup_extra(shm))
            pool = WorkerPool(jobs)
        except (OSError, ValueError):
            note_fallback("kernel.setup")
            pool = None
        if pool is not None:
            sh_parts = shm.array("parts")
            sh_stream = shm.array("stream")
            sh_spos = shm.array("spos")
        else:
            sh_parts, sh_stream, sh_spos = parts, stream64, spos
        try:
            gather = resolver.gather
            sent = [False] * jobs
            window = jobs * _PIPELINE_DEPTH
            sid = id(resolver)
            for _ in range(resolver.passes):
                resolver.begin_pass()
                frontier = -1
                next_c = 0
                while frontier < num_chunks - 1:
                    c = frontier + 1
                    result = None
                    if pool is not None:
                        try:
                            while (
                                next_c < num_chunks
                                and next_c - frontier <= window
                            ):
                                payload = {"sid": sid, "c": next_c, "base": frontier}
                                widx = next_c % jobs
                                if not sent[widx]:
                                    payload["setup"] = setup
                                    sent[widx] = True
                                pool.submit(next_c, _SCORE_TASK, payload)
                                next_c += 1
                            result = pool.recv(c)
                        except WorkerCrash:
                            pool.close()
                            pool = None
                            note_fallback("kernel.crash")
                    if result is None:
                        result = _score_chunk(
                            gather, sh_stream, sh_spos, sh_parts,
                            c, c - 1, chunk_size, k,
                        )
                    table, po, pv, pp = result
                    chunk = sh_stream[c * chunk_size : (c + 1) * chunk_size]
                    resolver.resolve_chunk(
                        c * chunk_size, chunk, table, _group_pulls(po, pv, pp), sh_parts
                    )
                    frontier = c
        finally:
            if pool is not None:
                pool.close()
        parts[:] = sh_parts


class _FennelResolver:
    """Sequential chunk resolution with the fast-path argmax bound.

    Owns the scalar Fennel state (loads, penalties, saturation) across
    chunks and passes; ``resolve_chunk`` is semantically the buffered
    kernel's inner loop with window pulls patched in.
    """

    def __init__(
        self, gather, parts, loads, weights, *, alpha, gamma, capacity, passes
    ):
        self.gather = gather
        self.passes = int(passes)
        self._gm1 = gamma - 1.0
        self._ag = alpha * gamma
        self._capacity = capacity
        self._weights_l = weights.tolist()
        self._parts_l = parts.tolist()
        self._loads_l = loads.tolist()
        self._penalty = [self._ag * pow_like_numpy(x, self._gm1) for x in self._loads_l]
        self._saturated = [x >= capacity for x in self._loads_l]
        self._num_saturated = sum(self._saturated)
        # The O(1) fast path models pass-1 dynamics only (nothing to
        # release); re-stream passes and pre-assigned inputs use the
        # exact slow path throughout.
        self._fast_ok = not any(p >= 0 for p in self._parts_l)
        self._pass_index = -1

    @property
    def loads(self):
        return self._loads_l

    def begin_pass(self) -> None:
        self._pass_index += 1

    def resolve_chunk(self, chunk_start, chunk, table, pulls, sh_parts) -> None:
        b = chunk.size
        chunk_l = chunk.tolist()
        parts_l = self._parts_l
        loads_l = self._loads_l
        weights_l = self._weights_l
        penalty = self._penalty
        saturated = self._saturated
        capacity = self._capacity
        ag, gm1 = self._ag, self._gm1
        k = len(loads_l)
        snapshot = [parts_l[v] for v in chunk_l]

        fast = self._fast_ok and self._pass_index == 0 and self._num_saturated == 0
        if fast:
            pstart = penalty[:]
            scores = table - np.asarray(pstart)
            best = scores.argmax(axis=1)
            rows = np.arange(b)
            bestv = scores[rows, best]
            scores[rows, best] = _NEG_INF
            second = scores.max(axis=1) if k > 1 else np.full(b, _NEG_INF)
            best_l = best.tolist()
            bestv_l = bestv.tolist()
            second_l = second.tolist()
            delta = [0.0] * k
            dmin = 0.0
            dmin_idx = 0

        for i in range(b):
            v = chunk_l[i]
            pull = pulls.get(i) if pulls is not None else None
            if fast and pull is None and self._num_saturated == 0:
                choice = best_l[i]
                if bestv_l[i] - delta[choice] > second_l[i] - dmin:
                    parts_l[v] = choice
                    grown = loads_l[choice] + weights_l[v]
                    loads_l[choice] = grown
                    penalty[choice] = ag * pow_like_numpy(grown, gm1)
                    if grown >= capacity:
                        saturated[choice] = True
                        self._num_saturated += 1
                    d = penalty[choice] - pstart[choice]
                    delta[choice] = d
                    if d < dmin:
                        dmin = d
                        dmin_idx = choice
                    elif choice == dmin_idx:
                        dmin = min(delta)
                        dmin_idx = delta.index(dmin)
                    continue
            current = parts_l[v]
            if current >= 0:
                released = loads_l[current] - weights_l[v]
                loads_l[current] = released
                penalty[current] = ag * pow_like_numpy(released, gm1)
                if saturated[current] and released < capacity:
                    saturated[current] = False
                    self._num_saturated -= 1
            row = table[i].tolist()
            if pull is not None:
                P = chunk_start + i
                for pu, u in pull:
                    pp = parts_l[u] if pu < P else snapshot[pu - chunk_start]
                    if pp >= 0:
                        row[pp] += 1
            if self._num_saturated == k:
                choice = 0
                best_load = loads_l[0]
                for p in range(1, k):
                    if loads_l[p] < best_load:
                        best_load = loads_l[p]
                        choice = p
            else:
                choice = -1
                best_s = _NEG_INF
                for p in range(k):
                    if saturated[p]:
                        continue
                    s = row[p] - penalty[p]
                    if s > best_s:
                        best_s = s
                        choice = p
            parts_l[v] = choice
            grown = loads_l[choice] + weights_l[v]
            loads_l[choice] = grown
            penalty[choice] = ag * pow_like_numpy(grown, gm1)
            if not saturated[choice] and grown >= capacity:
                saturated[choice] = True
                self._num_saturated += 1
            if fast:
                d = penalty[choice] - pstart[choice]
                delta[choice] = d
                if d < dmin:
                    dmin = d
                    dmin_idx = choice
                elif choice == dmin_idx:
                    dmin = min(delta)
                    dmin_idx = delta.index(dmin)
        sh_parts[chunk] = np.fromiter(
            (parts_l[v] for v in chunk_l), dtype=sh_parts.dtype, count=b
        )


def _make_setup_extra(graph):
    """How workers see the adjacency: shm segments (dense) or a re-open
    of the spill directory (sharded)."""
    if hasattr(graph, "spill_dir"):
        return lambda shm: {"kind": "sharded", "spill_dir": str(graph.spill_dir)}
    return lambda shm: {"kind": "dense", "indptr": shm.share("indptr", graph.indptr),
                        "indices": shm.share("indices", graph.indices)}


def fennel_parallel(
    indptr,
    indices,
    stream,
    parts,
    loads,
    weights,
    *,
    alpha: float,
    gamma: float,
    capacity: float,
    passes: int,
    chunk_size: int = DEFAULT_PARALLEL_CHUNK,
    graph=None,
    jobs: int | None = None,
) -> None:
    jobs = resolve_jobs(jobs)
    if graph is None:  # the shared kernel signature's dense arrays
        graph = CSRGraph(indptr, indices, validate=False)
    if jobs <= 1 or not shm_available():
        if jobs > 1:
            note_fallback("kernel.no_shm")
        fennel_buffered(
            indptr, indices, stream, parts, loads, weights,
            alpha=alpha, gamma=gamma, capacity=capacity, passes=passes, graph=graph,
        )
        return
    resolver = _FennelResolver(
        partial(gather_rows, graph), parts, loads, weights,
        alpha=alpha, gamma=gamma, capacity=capacity, passes=passes,
    )
    _run_parallel(
        resolver,
        _make_setup_extra(graph),
        stream, parts, jobs, int(chunk_size), loads.shape[0],
    )
    loads[:] = resolver.loads


BACKEND = KernelBackend(name="parallel", fennel=fennel_parallel)
register_kernel(BACKEND)
