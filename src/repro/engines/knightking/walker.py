"""Walker state: struct-of-arrays for a batch of random walkers.

A walk app reads/writes these arrays; the engine owns lifecycle
(activation, termination, step caps) and the per-machine accounting.
Struct-of-arrays instead of walker objects keeps every engine operation
one pass over flat arrays, in NumPy or in ``engines/_superstep.c``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WalkerBatch"]


@dataclass
class WalkerBatch:
    """State of all walkers in one run.

    Attributes
    ----------
    pos:    current vertex of each walker.
    prev:   previous vertex (−1 before the first step) — second-order
            apps (node2vec) condition on it.
    steps:  steps taken so far.
    alive:  walkers still walking.
    """

    pos: np.ndarray
    prev: np.ndarray
    steps: np.ndarray
    alive: np.ndarray

    @classmethod
    def start_at(cls, start_vertices: np.ndarray) -> "WalkerBatch":
        """Spawn one walker per entry of ``start_vertices``."""
        pos = np.asarray(start_vertices, dtype=np.int64).copy()
        return cls(
            pos=pos,
            prev=np.full(pos.size, -1, dtype=np.int64),
            steps=np.zeros(pos.size, dtype=np.int64),
            alive=np.ones(pos.size, dtype=bool),
        )

    @property
    def num_walkers(self) -> int:
        return self.pos.size

    @property
    def total_steps(self) -> int:
        """Steps executed across all walkers so far."""
        return int(self.steps.sum())
