"""Content-addressed artifact cache for partitions and simulated runs.

The paper's economic argument (Table 2, §4.2) is that partitioning cost
is paid **once** and amortised across seven applications. The bench
suite originally paid it on every figure: ``repro-bench all`` runs ~19
experiments and each regenerated assignments for the same (dataset ×
partitioner × seed) cells from scratch. This module is the persistent
reuse layer:

- **Addressing.** An artifact is addressed by the *content* of its
  inputs, never by timestamps or file names: the graph half of the key
  is :meth:`repro.graph.csr.CSRGraph.fingerprint` (a SHA-256 over the
  CSR arrays), the configuration half is :func:`config_key` — a digest
  of the partitioner/app name, its canonically normalised parameters,
  the seed, and :data:`CACHE_FORMAT_VERSION` as a salt. Bump the salt
  whenever the stored layout or any algorithm's semantics change and
  every stale artifact silently becomes a miss.
- **Store.** ``.npz`` files under ``$REPRO_CACHE_DIR`` (default
  ``~/.cache/repro-bpart/``), one subdirectory per artifact kind, with
  an in-process LRU in front so a warm experiment never touches the
  disk twice. Writes are atomic (temp file + ``os.replace``) so
  parallel ``--jobs`` workers can share one store; transient I/O errors
  retry briefly (:data:`ArtifactStore.IO_RETRY`) and then degrade to a
  counted miss/skipped store, and unreadable or truncated files are
  treated as misses, deleted best-effort, and recomputed — never a
  crash. Both paths carry chaos-injection sites (``artifacts.load`` /
  ``artifacts.store``, see :mod:`repro.resilience.chaos`).
- **Round trip.** :func:`memo` is the only caller of the store: every
  cached value is a key, a ``compute`` closure and an encode/decode
  pair. Timing-measurement experiments (Table 2's partition overhead)
  pass ``bypass=True`` so their wall clocks are always measured fresh;
  ``REPRO_NO_CACHE=1`` (the CLI's ``--no-cache``) disables reads *and*
  writes globally.

Six artifact kinds ride the store: ``partition`` (assignment vectors
— the headline reuse, :func:`cached_partition` / :func:`get_assignment`),
``churnledger`` and the simulation summaries kept by
:mod:`repro.bench.workloads` (deterministic simulated measurements are
replayable artifacts too). Hit/miss/store/error counters are kept per
process and surfaced by the CLI so the speedup is observable, not
asserted.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.resilience import RetryPolicy, call_with_retry, maybe_inject
from repro.resilience.chaos import register_site
from repro.partition.assignment import PartitionAssignment
from repro.partition.base import PartitionResult, get_partitioner
from repro.utils import canon

#: injection sites of the artifact store (seeded I/O failures).
SITE_ARTIFACTS_LOAD = register_site("artifacts.load")
SITE_ARTIFACTS_STORE = register_site("artifacts.store")

__all__ = [
    "CACHE_FORMAT_VERSION",
    "ArtifactStore",
    "CacheStats",
    "cache_enabled",
    "cached_churn_ledger",
    "cached_partition",
    "config_key",
    "dataclass_from_payload",
    "dataclass_payload",
    "default_cache_dir",
    "get_assignment",
    "get_store",
    "memo",
    "reset_store",
    "stats_snapshot",
]

#: bump whenever the artifact layout or any partitioner's semantics
#: change; the salt is hashed into every key, so old artifacts miss.
#: 2: field-derived payloads, ``elapsed`` for ``segments``, canon keys.
CACHE_FORMAT_VERSION = 2

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_DISABLE = "REPRO_NO_CACHE"


def cache_enabled() -> bool:
    """Whether the artifact cache is globally enabled (``REPRO_NO_CACHE``)."""
    return os.environ.get(_ENV_DISABLE, "").lower() not in ("1", "true", "yes")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-bpart``."""
    env = os.environ.get(_ENV_DIR, "").strip()
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-bpart"


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def _normalize_param(value: Any) -> Any:
    """Canonical JSON form: ``1`` and ``1.0`` must produce one key."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        return [_normalize_param(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _normalize_param(v) for k, v in sorted(value.items())}
    raise TypeError(f"parameter {value!r} is not cache-keyable")


def config_key(name: str, params: Mapping[str, Any]) -> str:
    """Digest of (name, sorted normalised params, format-version salt)."""
    return canon.digest(
        {
            "name": name.lower(),
            "params": _normalize_param(dict(params)),
            "version": CACHE_FORMAT_VERSION,
        }
    )


def scalar_attrs(obj: Any) -> dict[str, Any]:
    """Cache-keyable instance attributes (guards against default drift:
    a partitioner's scalar knobs enter the key even when the caller
    relied on defaults).

    Only a single leading underscore is stripped — ``lstrip("_")``
    would fold ``_c``/``c`` (or ``__x``/``x``) into one key, aliasing
    two distinct configs onto one artifact. A residual collision is a
    hard error, never a silent merge.
    """
    out: dict[str, Any] = {}
    sources: dict[str, str] = {}
    for attr, value in sorted(vars(obj).items()):
        if isinstance(value, (bool, int, float, str, type(None), np.integer, np.floating)):
            key = attr[1:] if attr.startswith("_") else attr
            if key in out:
                raise ConfigurationError(
                    f"cache-key collision on {type(obj).__name__}: attributes "
                    f"{sources[key]!r} and {attr!r} both map to key {key!r}"
                )
            out[key] = value
            sources[key] = attr
    return out


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Per-process hit/miss accounting, split by artifact kind."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0
    by_kind: dict[str, dict[str, int]] = field(default_factory=dict)

    def record(self, kind: str, event: str) -> None:
        setattr(self, event, getattr(self, event) + 1)
        bucket = self.by_kind.setdefault(
            kind, {"hits": 0, "misses": 0, "stores": 0, "errors": 0}
        )
        bucket[event] += 1
        if telemetry.enabled():
            telemetry.active().counter(
                "bench.cache.events", kind=kind, event=event
            ).inc()

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
            "by_kind": {k: dict(v) for k, v in self.by_kind.items()},
        }


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
class ArtifactStore:
    """Persistent ``.npz`` store with an in-process LRU in front.

    Payloads are plain ``dict[str, np.ndarray]`` (scalars become 0-d
    arrays on disk). The LRU holds the *same* payload dicts that disk
    hits produce, so callers may attach reconstructed objects under
    keys starting with ``"__"`` — those never touch the disk and are
    shared by later in-process hits.
    """

    #: transient-I/O retry before a read/write degrades (tiny backoff —
    #: the cache is an optimisation, never worth waiting seconds for).
    IO_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.1)

    def __init__(self, root: Path | None = None, *, memory_items: int = 128) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()
        self._memory: OrderedDict[tuple[str, str, str], dict] = OrderedDict()
        self._memory_items = int(memory_items)

    def path_for(self, kind: str, graph_fp: str, key: str) -> Path:
        return self.root / kind / f"{graph_fp[:20]}-{key[:20]}.npz"

    def contains(self, kind: str, graph_fp: str, key: str) -> bool:
        """Presence check with no stats side effects."""
        if (kind, graph_fp, key) in self._memory:
            return True
        return self.path_for(kind, graph_fp, key).exists()

    def load(self, kind: str, graph_fp: str, key: str) -> dict | None:
        """Payload for the key, or ``None`` (counted as a miss).

        Transient I/O errors (``OSError``) retry under :data:`IO_RETRY`
        and then degrade to a counted miss — the caller recomputes. A
        present-but-*corrupted* file counts as an error and a miss: it
        is removed best-effort and the caller recomputes. Neither path
        is ever fatal.
        """
        mem_key = (kind, graph_fp, key)
        payload = self._memory.get(mem_key)
        if payload is not None:
            self._memory.move_to_end(mem_key)
            self.stats.record(kind, "hits")
            return payload
        path = self.path_for(kind, graph_fp, key)
        if not path.exists():
            self.stats.record(kind, "misses")
            return None

        def _read(attempt: int) -> dict:
            maybe_inject(SITE_ARTIFACTS_LOAD, key, attempt=attempt, path=path)
            with np.load(path, allow_pickle=False) as data:
                return {name: data[name] for name in data.files}

        try:
            payload = call_with_retry(
                _read, self.IO_RETRY, retry_on=(OSError,), key=key, site="artifacts.load"
            )
        except OSError:
            # Persistent I/O failure: degrade to recompute, keep the file.
            self.stats.record(kind, "errors")
            self.stats.record(kind, "misses")
            return None
        except Exception:
            self.stats.record(kind, "errors")
            self.stats.record(kind, "misses")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._remember(mem_key, payload)
        self.stats.record(kind, "hits")
        return payload

    def store(self, kind: str, graph_fp: str, key: str, payload: dict) -> None:
        """Atomically persist a payload (best-effort; I/O failures retry
        under :data:`IO_RETRY`, then only cost the cache entry — never
        the computation)."""
        self._remember((kind, graph_fp, key), payload)
        if not cache_enabled():
            return
        path = self.path_for(kind, graph_fp, key)
        disk = {k: v for k, v in payload.items() if not k.startswith("__")}

        def _write(attempt: int) -> None:
            maybe_inject(SITE_ARTIFACTS_STORE, key, attempt=attempt, path=path)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    np.savez(fh, **disk)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass

        try:
            call_with_retry(
                _write, self.IO_RETRY, retry_on=(OSError,), key=key, site="artifacts.store"
            )
        except Exception:
            self.stats.record(kind, "errors")
            return
        self.stats.record(kind, "stores")

    def _remember(self, mem_key: tuple[str, str, str], payload: dict) -> None:
        self._memory[mem_key] = payload
        self._memory.move_to_end(mem_key)
        while len(self._memory) > self._memory_items:
            self._memory.popitem(last=False)


_STORE: ArtifactStore | None = None


def get_store() -> ArtifactStore:
    """Process-wide store rooted at the current ``REPRO_CACHE_DIR``."""
    global _STORE
    root = default_cache_dir()
    if _STORE is None or _STORE.root != root:
        _STORE = ArtifactStore(root)
    return _STORE


def reset_store() -> None:
    """Forget the process-wide store (tests, cache-dir changes)."""
    global _STORE
    _STORE = None


def stats_snapshot() -> dict:
    """Copy of the current process's cache counters."""
    return get_store().stats.as_dict()


# ----------------------------------------------------------------------
# The one cache round trip
# ----------------------------------------------------------------------
def memo(kind: str, fingerprint: str, key: str, compute, encode, decode, *, bypass: bool = False):
    """``compute()`` through the store: the one cache round trip.

    A hit returns ``decode(payload)``, decoded once per process and
    then shared under the payload's ``"__value__"`` slot; a miss runs
    ``compute()`` and stores ``encode(value)`` (``encode`` may seed
    ``"__value__"`` itself when later hits must not see the fresh
    object). ``REPRO_NO_CACHE`` reduces the call to ``compute()``.
    ``bypass=True`` never *reads* — wall-clock measurements (Table 2)
    must time a real run — and stores only while the cell is absent: a
    timing experiment warms a cold cache for everyone else but never
    perturbs the value other runs replay.
    """
    if not cache_enabled():
        return compute()
    store = get_store()
    payload = None if bypass else store.load(kind, fingerprint, key)
    if payload is None:
        value = compute()
        if not (bypass and store.contains(kind, fingerprint, key)):
            payload = encode(value)
            payload.setdefault("__value__", value)
            store.store(kind, fingerprint, key, payload)
        return value
    if "__value__" not in payload:
        payload["__value__"] = decode(payload)
    return payload["__value__"]


def dataclass_payload(obj) -> dict:
    """Payload of a flat dataclass, derived from its fields: ndarray
    fields become npz entries, every other field goes into one canonical
    JSON string stored under the class name."""
    values = {f.name: getattr(obj, f.name) for f in fields(obj)}
    arrays = {k: v for k, v in values.items() if isinstance(v, np.ndarray)}
    rest = {
        k: v.item() if isinstance(v, np.generic) else v
        for k, v in values.items()
        if k not in arrays
    }
    return {**arrays, type(obj).__name__: np.array(canon.dumps(rest))}


def dataclass_from_payload(cls, payload: dict):
    """Inverse of :func:`dataclass_payload`."""
    rest = json.loads(str(payload[cls.__name__][()]))
    arrays = {f.name: np.asarray(payload[f.name]) for f in fields(cls) if f.name not in rest}
    return cls(**rest, **arrays)


# ----------------------------------------------------------------------
# Partition artifacts
# ----------------------------------------------------------------------
def _json_or_empty(obj: Any) -> str:
    try:
        return json.dumps(obj)
    except (TypeError, ValueError):
        return "{}"


def cached_partition(
    name: str,
    graph: CSRGraph,
    num_parts: int,
    *,
    seed: int = 0,
    bypass: bool = False,
    **params,
) -> PartitionResult:
    """Partition through the artifact cache (:func:`memo`).

    On a hit the stored assignment is rehydrated against ``graph`` and
    the result replays the ``elapsed`` seconds recorded when the
    artifact was computed (``metadata["artifact_cache"] == "hit"`` marks
    it); in-process hits for the same graph object share one
    :class:`PartitionAssignment`, the fresh run's. ``bypass`` is Table
    2's switch, see :func:`memo`.
    """
    partitioner = get_partitioner(name, seed=seed, **params)
    key_params = {"seed": seed, "num_parts": int(num_parts), **params}
    key_params.update(scalar_attrs(partitioner))

    def hit(assignment: PartitionAssignment, elapsed, metadata: dict) -> PartitionResult:
        return PartitionResult(assignment, float(elapsed), {**metadata, "artifact_cache": "hit"})

    def encode(result: PartitionResult) -> dict:
        return {
            "parts": result.assignment.parts,
            "num_parts": np.int64(result.assignment.num_parts),
            "elapsed": np.float64(result.elapsed),
            "metadata": np.array(_json_or_empty(result.metadata)),
            "__value__": hit(result.assignment, result.elapsed, result.metadata),
        }

    def decode(payload: dict) -> PartitionResult:
        assignment = PartitionAssignment(
            graph, np.asarray(payload["parts"]), int(payload["num_parts"])
        )
        return hit(assignment, payload["elapsed"], json.loads(str(payload["metadata"][()])))

    result = memo(
        "partition",
        graph.fingerprint(),
        config_key(name, key_params),
        lambda: partitioner.partition(graph, int(num_parts)),
        encode,
        decode,
        bypass=bypass,
    )
    if result.assignment.graph is not graph:  # equal content, another object
        old = result.assignment
        result = replace(result, assignment=PartitionAssignment(graph, old.parts, old.num_parts))
    return result


def get_assignment(
    graph: CSRGraph, partitioner_name: str, *, num_parts: int = 8, seed: int = 0, **params
) -> PartitionAssignment:
    """The assignment-only convenience form of :func:`cached_partition`."""
    return cached_partition(
        partitioner_name, graph, num_parts, seed=seed, **params
    ).assignment


def cached_churn_ledger(scenario, daemon_params: Mapping[str, Any], compute, *, bypass: bool = False) -> str:
    """Churn-daemon analogue: cache the canonical epoch-ledger JSON.

    A daemon run is a pure function of (scenario, daemon config), so the
    scenario digest takes the graph-fingerprint slot of the address and
    the daemon parameters the config slot. The payload is the ledger's
    canonical JSON text verbatim — byte-identity is the whole point of
    the ledger, and storing the bytes preserves it across the cache.
    """
    return memo(
        "churnledger",
        scenario.digest(),
        config_key("churn-daemon", dict(daemon_params)),
        compute,
        lambda text: {"ledger": np.array(text)},
        lambda payload: str(payload["ledger"][()]),
        bypass=bypass,
    )

