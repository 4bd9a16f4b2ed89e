"""Network timing model.

Models the paper's 56 Gbps Ethernet fabric with the standard
latency + size/bandwidth cost. Per superstep each machine's
communication time is the time to push its outgoing bytes onto the wire
plus the time to drain its incoming bytes, plus one synchronisation
latency — the full-duplex approximation used by most BSP cost analyses
(and consistent with how Gemini/KnightKing pipeline sends and
receives).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["NetworkModel"]


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth network with fixed-size messages.

    Attributes
    ----------
    bandwidth:     usable bytes/second per machine NIC
                   (56 Gbps ≈ 7 GB/s raw; default assumes ~70 % goodput).
    latency:       per-superstep synchronisation latency in seconds.
    message_bytes: wire size of one message (a walker or one vertex
                   update, including headers).
    """

    bandwidth: float = 5e9
    latency: float = 50e-6
    message_bytes: int = 16

    def __post_init__(self) -> None:
        check_positive("bandwidth", self.bandwidth)
        check_nonnegative("latency", self.latency)
        check_positive("message_bytes", self.message_bytes)

    def request_cost(
        self, n_messages: np.ndarray | float, bytes_each: float | None = None
    ) -> np.ndarray | float:
        """Seconds to push ``n_messages`` of ``bytes_each`` onto the wire.

        The one wire-cost formula of the whole simulator — one latency
        plus serialisation time ``n · bytes / bandwidth`` — shared by
        the BSP barrier accounting (:meth:`comm_seconds`) and the
        request-serving layer, where a batched request pays the latency
        once over all its coalesced messages. ``bytes_each`` defaults to
        :attr:`message_bytes`. Accepts a scalar or a per-machine array;
        note that zero messages still cost the latency — callers that
        send nothing must skip the call, not pass 0.
        """
        if bytes_each is None:
            bytes_each = self.message_bytes
        check_positive("bytes_each", bytes_each)
        n = np.asarray(n_messages, dtype=np.float64)
        if (n < 0).any():
            raise ConfigurationError(f"n_messages must be non-negative, got {n_messages!r}")
        cost = self.latency + n * float(bytes_each) / self.bandwidth
        return float(cost) if np.ndim(n_messages) == 0 else cost

    def comm_seconds(self, sent: np.ndarray, received: np.ndarray) -> np.ndarray:
        """Per-machine communication seconds for one superstep.

        Parameters
        ----------
        sent, received:
            Per-machine *message counts* (not bytes) for the superstep.
        """
        sent = np.asarray(sent, dtype=np.float64)
        received = np.asarray(received, dtype=np.float64)
        # Full-duplex approximation: the busy side dominates. Machines
        # that neither send nor receive still pay the barrier latency —
        # BSP synchronises everyone — which request_cost folds in.
        return self.request_cost(np.maximum(sent, received))
