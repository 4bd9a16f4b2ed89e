"""The reference model of serving's batch step, walkers and costs included.

``walk`` is the walk block ``_Run.serve_batch`` ran in Python before the
step moved into ``serving/_serve.c``, line for line: one generator per
walk batch from its ``seed_states`` row, one double per walker still
walking (a dead end's draw is spent), arc ``min(floor(u·deg), deg − 1)``
of the walker's row. ``model_batch`` adds the demand rows, the
``OrderedDict`` cache model and ``compute_seconds`` + ``request_cost``.
``rng_from_state`` is the PCG64 model: the NumPy generator of one
``seed_states`` row, whose draws ``walk_draws`` must equal.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.serving.simulator import _SALT_WALK
from repro.serving.workload import KIND_WALK
from repro.utils.rng import seed_states


class _State(ISeedSequence):
    """Hands PCG64 one precomputed ``generate_state(4, np.uint64)`` row."""

    def __init__(self, row: np.ndarray) -> None:
        self.row = row

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.row


def rng_from_state(row: np.ndarray) -> np.random.Generator:
    """The PCG64 generator of one :func:`~repro.utils.rng.seed_states` row."""
    return np.random.Generator(np.random.PCG64(_State(row)))


def walk(graph, positions: list, homes: list, row: np.ndarray, walk_steps: int):
    """Every vertex the walkers at ``positions`` step to, and its walker's home."""
    degrees, indptr = graph.degrees, graph.indptr
    draws = iter(rng_from_state(row).random(len(positions) * walk_steps).tolist())
    visited, visitor_homes = [], []
    for _ in range(walk_steps):
        slots, moved = [], []
        # zip pulls ``positions`` first, so the tail that dead-end walkers
        # leave unused is never read
        for pos, h, u in zip(positions, homes, draws):
            deg = degrees.item(pos)
            if deg:  # a dead-end walker stops, its draw spent
                slots.append(indptr.item(pos) + min(int(u * deg), deg - 1))
                moved.append(h)
        if not slots:
            break
        positions, homes = graph.take_arcs(slots).tolist(), moved
        visited += positions
        visitor_homes += homes
    return visited, visitor_homes


def model_batch(run, model, table, m: int, batch: list, batch_id: int):
    """``(visits, homes, edge work, remote reads, fetched blocks, seconds)`` of one batch
    of ``run`` (a ``_Run``) on ``model`` (a ``ModelCache``), as the Python step gave them."""
    from tests.serving.test_demand_plan import python_batch_step

    cfg, trace = run.cfg, run.trace
    walkers = [qi for qi in batch if trace.kind[qi] == KIND_WALK]
    visits, homes = [], []
    if walkers:
        row = seed_states(np.array([batch_id]), run.seed, _SALT_WALK, m)[0]
        visits, homes = walk(run.assignment.graph, [int(trace.vertex[qi]) for qi in walkers],
                             [run.home[qi] for qi in walkers], row, trace.spec.walk_steps)
    fetched, work, remote = python_batch_step(
        model, table, run.assignment.parts, cfg.cache_block_size, m, batch,
        list(zip(visits, homes)))
    seconds = cfg.cost.compute_seconds(steps=len(visits), edges=work, vertices=len(batch))
    seconds = float(seconds[m]) if np.ndim(seconds) else float(seconds)
    if remote:
        seconds += cfg.network.request_cost(remote)
    if fetched:
        seconds += cfg.network.request_cost(fetched, cfg.block_bytes)
    return visits, homes, work, remote, fetched, seconds
