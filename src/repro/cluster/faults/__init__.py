"""Deterministic fault injection and recovery for the BSP simulator.

The paper's central claim is that two-dimensional balance removes the
straggler machine that dominates barrier waiting (Figure 13). This
package extends the test of that claim from a *perfect* cluster to a
*failing* one: machines crash, slow down transiently, links degrade,
checkpoints cost I/O proportional to per-machine state — and recovery
cost depends directly on how balanced the redistributed load is, which
is exactly what BPart optimises.

- :mod:`~repro.cluster.faults.plan` — the :class:`FaultPlan` DSL
  (crashes, stragglers, degraded links, checkpoint cadence) with a
  canonical JSON form and cache digest;
- :mod:`~repro.cluster.faults.checkpoint` — the
  :class:`CheckpointCostModel` pricing checkpoint/restore I/O from
  ``|V_i|`` + ``|E_i|`` state sizes;
- :mod:`~repro.cluster.faults.recovery` — ``restart`` and
  ``redistribute`` recovery planners, the latter reusing BPart's
  combining logic so balanced inputs recover into balanced clusters.

A plan is executed by the one cluster,
``BSPCluster(num_machines, plan, graph=..., assignment=...)``
(:mod:`repro.cluster.bsp`), which both engines drive unmodified.
"""

from repro.cluster.faults.checkpoint import CheckpointCostModel
from repro.cluster.faults.plan import (
    CheckpointPolicy,
    Crash,
    DegradedLink,
    FaultPlan,
    Straggler,
)
from repro.cluster.faults.recovery import (
    RecoveryOutcome,
    plan_redistribute,
    plan_restart,
)

__all__ = [
    "CheckpointCostModel",
    "CheckpointPolicy",
    "Crash",
    "DegradedLink",
    "FaultPlan",
    "RecoveryOutcome",
    "Straggler",
    "plan_redistribute",
    "plan_restart",
]
