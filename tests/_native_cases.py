"""Small valid calls of every ``utils/native.py`` TABLE entry, and the
arguments that carry ids from outside the program.

``CASES[name]()`` returns the arguments :func:`repro.utils.native.call`
takes for ``name``; each call is valid and every array in it is non-empty.
``OUTSIDE[name]`` names the arguments whose ids the C loop range-checks
itself, with the bound they must stay below; ``OFFSETS[name]`` the row
offsets it reads from a graph. Shared by ``test_native.py``
and the sanitizer drill's child (``test_sanitizer_drill.py``).
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.serving.cache import PartitionAwareCache
from repro.utils.rng import seed_states


def _i8(*values):
    return np.array(values, dtype=np.int64)


def _sample_cdf():
    cdf = np.cumsum([0.2, 0.3, 0.5])
    return cdf / cdf[-1], np.empty(5, np.int64), np.random.default_rng(1).random(6), \
        np.empty(6, np.int64)


def _fennel_rows(k=2):
    # the stream 2, 0, 1 over a 3-vertex graph of one block: 0 -> {1, 2}, 1 -> {0}, 2 -> {}
    return ([(_i8(0, 2, 3, 3), np.array([1, 2, 0], np.int32))], _i8(2, 0, 1),
            np.full(3, -1, np.int32), np.zeros(k), np.ones(3), 0.5, 0.5, 10.0, np.empty(k),
            np.zeros(k, np.int64))


def _bucket_arcs():
    # five arcs over 6 vertices into buckets of 2 sources: 0 gets three, 1 none, 2 two
    return _i8(4, 0, 5, 1, 0), _i8(0, 4, 1, 5, 3), 2, np.empty(5, np.int64), \
        np.empty(10, np.int64), np.zeros(6, np.int64)


def _scatter_rows():
    # four arcs of sources [2, 5) over 6 vertices; source 2 has one slot, 3 two and 4 one
    return _i8(3, 1, 2, 5, 3, 0, 4, 2), 4, 2, _i8(0, 1, 3), _i8(1, 3, 4), 6, \
        np.empty(4, np.int32)


def serve_graph():
    """An 8-vertex graph with a sink (3) as two 4-row blocks, int32 then int64 ids:
    0 -> 1, 1 -> {2, 5}, 2 -> 3, 4 -> 0, 5 -> 6, 6 -> {0, 7}, 7 -> 4."""
    return [(_i8(0, 1, 3, 4, 4), np.array([1, 2, 5, 3], np.int32)),
            (_i8(0, 1, 2, 4, 5), _i8(0, 6, 0, 7, 4))]


def serve_cache(machines=2, capacity=1, steps=3):
    """A cache of 4-vertex blocks attached to a 3-row demand table over 8 vertices, whose
    rows 0 and 2 are walks from 1 and 6 of ``steps`` steps on ``serve_graph()`` (two
    walkers a batch), with one seed row a machine."""
    cache = PartitionAwareCache(machines, block_size=4, capacity=capacity)
    demand = (np.ones(3), _i8(0, 1, 0), _i8(0, 1, 2, 2), np.array([0, 1], np.int32),
              np.array([1, 2], np.int32))
    cache.attach(demand, np.zeros(8, np.int32))
    seeds = np.stack([seed_states(np.arange(1), 5, m) for m in range(machines)], axis=1)
    cache.context.set(
        kind=np.array([1, 0, 1], np.uint8), vertex=_i8(1, 5, 6), home=_i8(0, 1, 0),
        graph=serve_graph(), cost=np.array([5e-8, 2e-8, 1e-8, 5e-5, 5e9, 16.0, 4096.0]),
        cores=np.full(machines, 48.0), s=1, seeds=seeds, visits=np.empty(2 * steps + 2, np.int64),
        homes=np.empty(2 * steps + 2, np.int64), steps=steps)
    return cache


def _serve_reads(machines=2, capacity=1):
    return (serve_cache(machines, capacity).context, 0, array("q", [0, 2]), array("q", [1, 5]),
            array("q", [0, 1]))


def _serve_batch(machines=2, capacity=1):
    return serve_cache(machines, capacity).context, 0, 0, array("q", [0, 1, 2])


def _walk_draws():
    return seed_states(np.arange(1), 5)[0], np.empty(5)


def _walk_live():
    return np.array([1, 0, 1, 1], bool), _i8(3, 1, 2, 0), _i8(-1, 0, 1, 2), *(
        np.empty(3, np.int64) for _ in range(3))


def _walk_apply(m=2):
    # walkers 0 and 2 of three on a 4-vertex graph, at most 3 steps each
    return (_i8(0, 2), _i8(1, 3), np.array([False, True]), _i8(0, 1, 1, 0) % m, np.zeros(m),
            3, _i8(0, 1, 2), _i8(-1, -1, -1), _i8(0, 0, 0), np.ones(3, bool),
            np.zeros(m * m, np.int64), np.full((3, 4), -1, np.int64), np.zeros(4, np.int64),
            np.ones(3, bool))


def _graph():
    # 0 -> {1, 2}, 1 -> {0}, 2 -> {}, 3 -> {0, 1, 2}: ascending rows, one block
    return [(_i8(0, 2, 3, 3, 6), np.array([1, 2, 0, 0, 1, 2], np.int32))]


def _uniform_step():
    return _graph(), 4, _i8(0, 2, 3), np.array([0.1, 0.5, 0.99]), np.empty(3, np.int64), \
        np.empty(3, bool)


def _arcs_sorted():
    return _graph(), _i8(0, 3, 2), _i8(2, 1, 0), np.empty(3, bool)


def _census_scan():
    return _graph(), _i8(0, 1, 0, 1), np.zeros(4, np.int64), np.zeros(4, np.int64)


def _induce_rows():
    # members 0, 1 and 3 of _graph(): 0 keeps {1}, 1 keeps {0}, 3 keeps {0, 1}
    return _graph(), _i8(0, 1, 3), _i8(0, 1, -1, 2), np.empty(3, np.int64), np.empty(6, np.int32)


def _gather_rows():
    return _graph(), _i8(3, 0, 2), 4, np.empty(5, np.int64)


def _census_group():
    # the cut arcs 0->1, 1->0, 3->0, 3->2 of _csr() under parts (0, 1, 0, 1), by target
    return _i8(0, 1, 0, 1), 2, _i8(2, 3, 4, 4), _i8(1, 3, 0, 3), *(
        np.empty(4, np.int64) for _ in range(4))


def _census_push():
    return 4, np.array([True, False, True, True]), _i8(3, 0, 3), _i8(0, 1), _i8(2, 1), \
        np.zeros(4, np.int64)


CASES = {
    "sample_cdf": _sample_cdf,
    "fennel_rows": _fennel_rows,
    "serve_reads": _serve_reads,
    "serve_batch": _serve_batch,
    "walk_draws": _walk_draws,
    "walk_live": _walk_live,
    "walk_apply": _walk_apply,
    "uniform_step": _uniform_step,
    "arcs_sorted": _arcs_sorted,
    "census_scan": _census_scan,
    "induce_rows": _induce_rows,
    "gather_rows": _gather_rows,
    "census_group": _census_group,
    "census_push": _census_push,
    "bucket_arcs": _bucket_arcs,
    "scatter_rows": _scatter_rows,
}

#: per entry, each argument (its index in CASES' tuple) whose ids the C loop checks,
#: and the number of ids the valid case allows there; in a block table, block 0's ids
OUTSIDE = {
    "fennel_rows": {0: 3, 1: 3},
    "serve_reads": {2: 3, 3: 8},
    "serve_batch": {3: 3},
    "walk_apply": {1: 4},
    "uniform_step": {0: 4, 2: 4},
    "arcs_sorted": {1: 4},
    "census_scan": {0: 4},
    "induce_rows": {0: 4},
    "gather_rows": {0: 4, 1: 4},
    "bucket_arcs": {0: 6},
    "scatter_rows": {0: 5},  # a source past rows [2, 5)
}

#: per entry, the block table (argument index) whose row offsets it reads as file contents:
#: each must lie in [0, z] of the ids it indexes
OFFSETS = {name: 0 for name in ("fennel_rows", "uniform_step", "arcs_sorted", "census_scan",
                                 "induce_rows", "gather_rows")}


def with_id(args, i, value, at=0):
    """``args`` with id ``at`` of argument ``i`` set to ``value``; of a block table, block 0's ids
    (``offsets``: its row offsets)."""
    args = list(args)
    if isinstance(args[i], list):
        (ptr, ids), *rest = args[i]
        ids = np.array(ids)
        ids[at] = value
        args[i] = [(ptr, ids), *rest]
    else:
        args[i] = np.array(args[i])
        args[i][at] = value
    return args


def with_offset(args, i, at, value=None):
    """``args`` with offset ``at`` of block 0 of the table at ``i`` set to ``value`` (None: one
    past its ids)."""
    args = list(args)
    (ptr, ids), *rest = args[i]
    ptr = ptr.copy()
    ptr[at] = ids.size + 1 if value is None else value
    args[i] = [(ptr, ids), *rest]
    return args
