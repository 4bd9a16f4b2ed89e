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


def _i8(*values):
    return np.array(values, dtype=np.int64)


def _sample_cdf():
    cdf = np.cumsum([0.2, 0.3, 0.5])
    return cdf / cdf[-1], np.empty(5, np.int64), np.random.default_rng(1).random(6), \
        np.empty(6, np.int64)


def _fennel_chunk(k=2):
    # rows 0..2 of a 6-vertex graph: 0 -> {1, 2}, 1 -> {0}, 2 -> {}
    return (_i8(0, 1, 2), _i8(2, 1, 0), _i8(1, 2, 0), np.full(6, -1, np.int32), np.zeros(k),
            np.ones(6), 0.5, 0.5, 10.0, np.empty(k), np.zeros(k, np.int64))


def serve_cache(machines=2, capacity=1):
    """A cache of 4-vertex blocks attached to a 3-row demand table over 8 vertices."""
    cache = PartitionAwareCache(machines, block_size=4, capacity=capacity)
    demand = (np.ones(3), _i8(0, 1, 0), _i8(0, 1, 2, 2), np.array([0, 1], np.int32),
              np.array([1, 2], np.int32))
    cache.attach(demand, np.zeros(8, np.int32))
    return cache


def _serve_reads(machines=2, capacity=1):
    return (serve_cache(machines, capacity).context, 0, array("q", [0, 2]), array("q", [1, 5]),
            array("q", [0, 1]))


def _walk_live():
    return np.array([1, 0, 1, 1], bool), _i8(3, 1, 2, 0), _i8(-1, 0, 1, 2), *(
        np.empty(3, np.int64) for _ in range(3))


def _walk_apply(m=2):
    # walkers 0 and 2 of three on a 4-vertex graph, at most 3 steps each
    return (_i8(0, 2), _i8(1, 3), np.array([False, True]), _i8(0, 1, 1, 0) % m, np.zeros(m),
            3, _i8(0, 1, 2), _i8(-1, -1, -1), _i8(0, 0, 0), np.ones(3, bool),
            np.zeros(m * m, np.int64), np.full((3, 4), -1, np.int64), np.zeros(4, np.int64),
            np.ones(3, bool))


def _csr():
    # 0 -> {1, 2}, 1 -> {0}, 2 -> {}, 3 -> {0, 1, 2}: ascending rows
    return _i8(0, 2, 3, 3, 6), np.array([1, 2, 0, 0, 1, 2], np.int32)


def _uniform_slots():
    return _csr()[0], _i8(0, 2, 3), np.array([0.1, 0.5, 0.99]), np.empty(3, np.int64), \
        np.empty(3, bool)


def _arcs_sorted():
    indptr, ids = _csr()
    return 0, indptr, ids, _i8(0, 3, 2), _i8(2, 1, 0), np.empty(3, bool)


def _census_scan():
    indptr, ids = _csr()
    return 0, indptr, ids, _i8(0, 1, 0, 1), np.zeros(4, np.int64), np.zeros(4, np.int64)


def _census_group():
    # the cut arcs 0->1, 1->0, 3->0, 3->2 of _csr() under parts (0, 1, 0, 1), by target
    return _i8(0, 1, 0, 1), 2, _i8(2, 3, 4, 4), _i8(1, 3, 0, 3), *(
        np.empty(4, np.int64) for _ in range(4))


def _census_push():
    return 4, np.array([True, False, True, True]), _i8(3, 0, 3), _i8(2, 1, 2), _i8(0, 1), \
        _i8(2, 1), 1, np.zeros(4, np.int64)


CASES = {
    "sample_cdf": _sample_cdf,
    "fennel_chunk": _fennel_chunk,
    "serve_reads": _serve_reads,
    "walk_live": _walk_live,
    "walk_apply": _walk_apply,
    "uniform_slots": _uniform_slots,
    "arcs_sorted": _arcs_sorted,
    "census_scan": _census_scan,
    "census_group": _census_group,
    "census_push": _census_push,
}

#: per entry, each argument (its index in CASES' tuple) whose ids the C loop checks,
#: and the number of ids the valid case allows there
OUTSIDE = {
    "fennel_chunk": {2: 6},
    "serve_reads": {2: 3, 3: 8},
    "walk_apply": {1: 4},
    "uniform_slots": {1: 4},
    "arcs_sorted": {3: 4},
    "census_scan": {2: 4},
}

#: per entry, the row offsets (argument index) that it reads as file contents:
#: each must lie in [0, z] of the ids it indexes
OFFSETS = {"arcs_sorted": 1, "census_scan": 1}
