"""Deterministic request-workload generation for the serving layer.

The serving simulator is open-loop: users issue queries at a fixed
aggregate Poisson rate regardless of how the cluster is coping, which
is the regime where tail latency actually reveals partition quality
(closed-loop clients self-throttle and hide the queues). The workload
has the two statistical features that make partitioning matter:

- **Zipf popularity over degree rank.** Hot vertices are hubs, so the
  machines hosting hub-heavy parts absorb a disproportionate share of
  the traffic *and* each of their queries touches more edges — exactly
  the compounding imbalance BPart's two-dimensional balancing targets.
- **Community-biased locality.** A fraction of each user's queries
  lands in a small id-window around their home vertex. The synthetic
  datasets embed community structure in id-locality (see
  :func:`repro.graph.generators.social_graph`), so contiguous
  partitioners keep a user's session on one machine while hash scatters
  it.

Everything is a pure function of (spec, graph): the spec serialises to
a canonical ``workload/v1`` JSON document with a SHA-256 digest, and
:meth:`WorkloadSpec.generate` derives all randomness from the spec's
seed via :func:`repro.utils.rng.derive_rng`. Same spec + same graph ⇒
byte-identical trace arrays.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, fields

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.utils import canon
from repro.utils.rng import derive_rng
from repro.utils.validation import check_count, check_positive

__all__ = ["WorkloadSpec", "QueryTrace", "KIND_KHOP", "KIND_WALK"]

WORKLOAD_SCHEMA = "workload/v1"

#: query kinds, stored as a compact uint8 column in the trace.
KIND_KHOP = 0
KIND_WALK = 1

# Salts for the independent stochastic stages of generation.
_SALT_ARRIVALS = 0x5E41
_SALT_USERS = 0x5E42
_SALT_HOMES = 0x5E43
_SALT_TARGETS = 0x5E44
_SALT_KINDS = 0x5E45


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of one serving workload.

    Attributes
    ----------
    users:       number of simulated users (each with a Zipf-drawn home
                 vertex).
    duration:    simulated seconds of traffic.
    rate:        aggregate arrival rate, queries/second (open loop).
    zipf_s:      Zipf exponent of vertex popularity over degree rank
                 (s > 1 concentrates traffic on hubs).
    locality:    probability a query targets the user's community
                 window rather than a fresh popularity draw.
    window_frac: community window half-width as a fraction of ``n``.
    walk_frac:   fraction of queries that are short random walks; the
                 rest are k-hop neighbourhood reads.
    khop:        neighbourhood radius of read queries (1 or 2).
    khop_cap:    max sampled hop-1 neighbours expanded at hop 2.
    walk_steps:  steps per walk query.
    seed:        master seed; all generation randomness derives from it.
    """

    users: int = 2000
    duration: float = 2.0
    rate: float = 4000.0
    zipf_s: float = 1.1
    locality: float = 0.6
    window_frac: float = 0.02
    walk_frac: float = 0.3
    khop: int = 2
    khop_cap: int = 64
    walk_steps: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("users", "khop", "khop_cap", "walk_steps"):
            check_count(name, getattr(self, name))
        check_positive("duration", self.duration)
        check_positive("rate", self.rate)
        check_positive("zipf_s", self.zipf_s)
        check_positive("window_frac", self.window_frac)
        for name in ("locality", "walk_frac"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
        if self.khop not in (1, 2):
            raise ConfigurationError(f"khop must be 1 or 2, got {self.khop!r}")

    # -- canonical serialisation ---------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready form with the schema tag."""
        return {
            "schema": WORKLOAD_SCHEMA,
            "users": int(self.users),
            "duration": float(self.duration),
            "rate": float(self.rate),
            "zipf_s": float(self.zipf_s),
            "locality": float(self.locality),
            "window_frac": float(self.window_frac),
            "walk_frac": float(self.walk_frac),
            "khop": int(self.khop),
            "khop_cap": int(self.khop_cap),
            "walk_steps": int(self.walk_steps),
            "seed": int(self.seed),
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, compact separators)."""
        return canon.dumps(self.to_dict())

    def digest(self) -> str:
        """SHA-256 of the canonical JSON — the workload's identity."""
        return canon.digest(self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_dict` output — and only that."""
        canon.check_tag(doc, "schema", WORKLOAD_SCHEMA, "workload")
        canon.check_keys(doc, "workload", ["schema", *(f.name for f in fields(cls))])
        return cls(**{k: v for k, v in doc.items() if k != "schema"})

    @classmethod
    def from_json(cls, text: str) -> "WorkloadSpec":
        """Parse a ``workload/v1`` document (schema tag required)."""
        return cls.from_dict(canon.loads(text, "workload"))

    # -- generation ----------------------------------------------------
    def generate(self, graph: CSRGraph) -> "QueryTrace":
        """Materialise the arrival trace for ``graph``.

        Deterministic given (spec, graph): every stage draws from its
        own salted generator, so changing one knob never perturbs the
        streams of the others.
        """
        start = time.perf_counter()  # the span is recorded once ``queries`` is known
        n = graph.num_vertices
        if n == 0:
            raise ConfigurationError("cannot generate a workload on an empty graph")

        # Open-loop Poisson arrivals: exponential interarrivals, summed,
        # clipped to the duration. Oversample so truncation, not
        # exhaustion, decides the query count.
        rng = derive_rng(self.seed, _SALT_ARRIVALS)
        expect = self.rate * self.duration
        draw = int(np.ceil(expect + 6.0 * np.sqrt(expect + 1.0))) + 16
        gaps = rng.exponential(1.0 / self.rate, size=draw)
        times = np.cumsum(gaps)
        times = times[times < self.duration]
        q = times.size
        if q == 0:
            raise ConfigurationError(
                f"workload produced zero arrivals (rate={self.rate}, "
                f"duration={self.duration}); raise rate or duration"
            )

        # Popularity: Zipf over degree rank. argsort is made total by
        # the stable kind + index tiebreak, so equal-degree vertices
        # rank deterministically.
        order = np.argsort(-graph.degrees, kind="stable").astype(np.int64)
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** (-self.zipf_s)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]

        def zipf_vertices(generator: np.random.Generator, count: int) -> np.ndarray:
            idx = np.searchsorted(cdf, generator.random(count), side="left")
            return order[np.minimum(idx, n - 1)]

        homes = zipf_vertices(derive_rng(self.seed, _SALT_HOMES), self.users)

        user_rng = derive_rng(self.seed, _SALT_USERS)
        user = user_rng.integers(0, self.users, size=q).astype(np.int64)

        target_rng = derive_rng(self.seed, _SALT_TARGETS)
        vertex = zipf_vertices(target_rng, q)
        local = target_rng.random(q) < self.locality
        window = max(1, int(self.window_frac * n))
        offsets = target_rng.integers(-window, window + 1, size=q)
        near_home = np.clip(homes[user] + offsets, 0, n - 1)
        vertex = np.where(local, near_home, vertex).astype(np.int64)

        kind_rng = derive_rng(self.seed, _SALT_KINDS)
        kind = np.where(
            kind_rng.random(q) < self.walk_frac, KIND_WALK, KIND_KHOP
        ).astype(np.uint8)

        for arr in (times, user, vertex, kind):
            arr.setflags(write=False)
        telemetry.active().add_span(
            "serving.workload.generate", start, time.perf_counter() - start, queries=q
        )
        return QueryTrace(spec=self, times=times, user=user, vertex=vertex, kind=kind)


@dataclass(frozen=True)
class QueryTrace:
    """Generated arrival trace: parallel columns, sorted by time."""

    spec: WorkloadSpec
    times: np.ndarray  # float64, strictly increasing arrival seconds
    user: np.ndarray  # int64 user id per query
    vertex: np.ndarray  # int64 target vertex per query
    kind: np.ndarray  # uint8 KIND_KHOP / KIND_WALK

    @property
    def num_queries(self) -> int:
        """Number of arrivals in the trace."""
        return int(self.times.size)

    def fingerprint(self) -> str:
        """Content hash over the spec digest and all trace columns."""
        h = hashlib.sha256()
        h.update(b"querytrace-v1:")
        h.update(self.spec.digest().encode("ascii"))
        for arr in (self.times, self.user, self.vertex, self.kind):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()
