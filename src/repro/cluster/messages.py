"""Per-superstep message traffic bookkeeping.

A :class:`TrafficMatrix` is an ``M × M`` count of messages from machine
``i`` to machine ``j`` within one superstep. Engines fill it (walker
transmissions in KnightKing, vertex updates in Gemini); the cluster
derives per-machine sent/received vectors for the network model, and
Figure 5b's "total message walks" is the sum over all supersteps.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

__all__ = ["TrafficMatrix"]


class TrafficMatrix:
    """Dense ``M × M`` message-count matrix for one superstep."""

    __slots__ = ("_counts",)

    def __init__(self, num_machines: int) -> None:
        if num_machines <= 0:
            raise SimulationError(f"num_machines must be positive, got {num_machines}")
        self._counts = np.zeros((num_machines, num_machines), dtype=np.int64)

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "TrafficMatrix":
        """Build from a dense per-pair count matrix.

        The diagonal is zeroed — local delivery is free. Both engines
        build their supersteps' traffic this way, from a ``bincount`` of
        ``src_machine * M + dst_machine`` ids.
        """
        arr = np.asarray(counts, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise SimulationError(f"counts must be a square matrix, got {arr.shape}")
        tm = cls(arr.shape[0])
        tm._counts += arr
        np.fill_diagonal(tm._counts, 0)
        return tm

    @property
    def counts(self) -> np.ndarray:
        """The raw matrix (view)."""
        return self._counts

    @property
    def num_machines(self) -> int:
        return self._counts.shape[0]

    @property
    def sent(self) -> np.ndarray:
        """Messages sent per machine (row sums)."""
        return self._counts.sum(axis=1)

    @property
    def received(self) -> np.ndarray:
        """Messages received per machine (column sums)."""
        return self._counts.sum(axis=0)

    @property
    def total(self) -> int:
        """Total cross-machine messages this superstep."""
        return int(self._counts.sum())
