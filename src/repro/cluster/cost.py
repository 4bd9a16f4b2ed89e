"""Per-machine computation cost model.

The simulator converts abstract work counts into seconds. Defaults are
calibrated to the paper's hardware (2 × 24-core Xeon E5-2650 v4): a
random-walk step or an edge update is a few tens of nanoseconds of
per-core work in KnightKing/Gemini, and each machine spreads its local
work across its cores.

Only *ratios* matter for every figure reproduced here (normalized
running time, waiting ratio, load distributions), so the absolute
constants need not be exact — but keeping them physical makes simulated
runtimes land in a plausible range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import check_nonnegative

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Seconds of work per unit, per machine.

    Attributes
    ----------
    step_cost:    seconds of single-core work per walker step.
    edge_cost:    seconds of single-core work per edge processed.
    vertex_cost:  seconds of single-core work per active vertex.
    cores:        cores per machine; local work is divided by this.
                  May be a per-machine array (aligned with the work
                  arrays) to model a *heterogeneous* cluster — e.g. one
                  straggler with half the cores, the failure mode
                  balanced partitioning cannot fix but the ledger should
                  expose.
    """

    step_cost: float = 5e-8
    edge_cost: float = 2e-8
    vertex_cost: float = 1e-8
    cores: int | tuple[int, ...] = 48

    def __post_init__(self) -> None:
        check_nonnegative("step_cost", self.step_cost)
        check_nonnegative("edge_cost", self.edge_cost)
        check_nonnegative("vertex_cost", self.vertex_cost)
        cores = np.asarray(self.cores)
        if cores.size == 0 or (cores <= 0).any():
            raise ConfigurationError(f"cores must be positive, got {self.cores!r}")
        # Normalise sequences to a hashable tuple so the dataclass stays
        # frozen-friendly.
        if cores.ndim:
            object.__setattr__(self, "cores", tuple(int(c) for c in cores))

    @property
    def cores_array(self) -> np.ndarray | int:
        """Cores as an array (heterogeneous) or scalar (uniform)."""
        return np.asarray(self.cores) if isinstance(self.cores, tuple) else self.cores

    def cores_for(self, machines: int) -> np.ndarray:
        """Each machine's cores on ``machines`` machines; a per-machine tuple of another length
        is a :class:`ConfigurationError` naming ``cores``."""
        if isinstance(self.cores, tuple) and len(self.cores) != machines:
            raise ConfigurationError(f"cores has {len(self.cores)} entries for {machines} machines")
        return np.full(machines, self.cores, float)

    def compute_seconds(
        self,
        *,
        steps: np.ndarray | float = 0.0,
        edges: np.ndarray | float = 0.0,
        vertices: np.ndarray | float = 0.0,
    ) -> np.ndarray | float:
        """Convert per-machine work counts into per-machine seconds.

        Accepts scalars or aligned arrays (one entry per machine) and
        broadcasts; with per-machine ``cores`` the arrays must align
        with the machine axis.
        """
        steps, edges, vertices = (np.asarray(c, np.float64) for c in (steps, edges, vertices))
        total = steps * self.step_cost + edges * self.edge_cost + vertices * self.vertex_cost
        return total / self.cores_array
