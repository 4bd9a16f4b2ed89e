"""Simulated BSP cluster substrate.

The paper's testbed is eight machines on 56 Gbps Ethernet running BSP
supersteps (Figure 1): per iteration every machine computes on its local
subgraph, exchanges messages, and *waits* for the slowest machine. All
evaluation quantities — per-machine compute time (Figure 12), waiting
ratio (Figure 13), normalized running time (Figures 14/15) — are
functions of the BSP schedule, which this package reproduces exactly:

- :class:`~repro.cluster.cost.CostModel` — seconds per walker step /
  per edge / per active vertex, per machine core count.
- :class:`~repro.cluster.network.NetworkModel` — latency + bandwidth
  message timing.
- :class:`~repro.cluster.ledger.TimingLedger` — per-iteration
  per-machine compute/comm/wait bookkeeping.
- :class:`~repro.cluster.bsp.BSPCluster` — ties them together; engines
  submit per-superstep work and traffic, the cluster derives the
  schedule. Its optional :class:`~repro.cluster.faults.FaultPlan`
  (crashes, stragglers, degraded links, checkpoints) perturbs that
  schedule, and :meth:`~repro.cluster.bsp.BSPCluster.report` summarises
  the result as a :class:`~repro.cluster.bsp.FaultReport`.
- :mod:`~repro.cluster.faults` — the plan DSL, checkpoint pricing and
  the recovery planners the cluster executes.
"""

from repro.cluster.bsp import BSPCluster, FaultReport
from repro.cluster.cost import CostModel
from repro.cluster.faults import FaultPlan
from repro.cluster.ledger import IterationTiming, LedgerEvent, TimingLedger
from repro.cluster.messages import TrafficMatrix
from repro.cluster.network import NetworkModel
from repro.cluster.trace import to_chrome_trace, write_chrome_trace

__all__ = [
    "BSPCluster",
    "CostModel",
    "FaultPlan",
    "FaultReport",
    "NetworkModel",
    "TimingLedger",
    "IterationTiming",
    "LedgerEvent",
    "TrafficMatrix",
    "to_chrome_trace",
    "write_chrome_trace",
]
