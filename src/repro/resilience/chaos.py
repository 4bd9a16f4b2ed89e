"""Deterministic chaos harness: seeded fault injection for the pipeline.

Production code calls :func:`maybe_inject` at its *injection sites* —
named choke points such as ``runner.worker`` (inside a suite worker
process, keyed by experiment id) or ``artifacts.load`` (before reading a
cache file, keyed by the artifact key). With no plan installed the call
is a module-global ``None`` check. With a plan, whether a site fires is
a **pure function** of ``(plan seed, site, rule, key)`` plus the
caller's 1-based attempt number:

- a rule fires for a key iff ``hash_unit(seed, site, index, key) <
  rate`` — the *same* keys fail in every run of the same plan,
  regardless of worker scheduling;
- it keeps firing for the first ``max_fires`` attempts at that key and
  then stays quiet, so a retry policy with more attempts than
  ``max_fires`` is *guaranteed* to eventually see the clean path (the
  chaos tests assert recovery, not luck).

Fault kinds cover the real failure classes of the execution layer:

``exception``  raise :class:`ChaosError` (an experiment bug),
``ioerror``    raise :class:`OSError` (store/filesystem failure),
``corrupt``    scribble over the file at ``path`` (torn cache write),
``hang``       sleep ``hang_seconds`` (stuck worker / NFS stall),
``kill``       ``os._exit(70)`` (OOM-killed / segfaulted worker).

Plans serialise to canonical JSON and install into the
``REPRO_CHAOS`` environment variable, so spawn workers inherit the
active plan exactly like ``REPRO_NO_CACHE`` — the parent process and
every worker agree on which sites fail.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from repro import telemetry
from repro.errors import ConfigurationError, ReproError
from repro.resilience.policy import hash_unit
from repro.utils import canon

__all__ = [
    "CHAOS_ENV",
    "KILL_EXIT_CODE",
    "ChaosError",
    "ChaosRule",
    "ChaosPlan",
    "active_plan",
    "install_plan",
    "known_sites",
    "maybe_inject",
    "register_site",
]

#: environment variable carrying the installed plan's JSON.
CHAOS_ENV = "REPRO_CHAOS"

CHAOS_FORMAT = "chaos-plan/v1"

#: exit status used by the ``kill`` fault (distinct from Python's 1/2).
KILL_EXIT_CODE = 70

_KINDS = ("exception", "ioerror", "corrupt", "hang", "kill")


class ChaosError(ReproError):
    """The exception raised by an ``exception``-kind injection."""


# ---------------------------------------------------------------------------
# Injection-site registry. Every module that calls maybe_inject() declares
# its sites at import time via register_site(); ChaosPlan validation then
# rejects rules naming a site nothing will ever fire — a typo'd plan fails
# at construction instead of silently never injecting.

_SITES: set[str] = set()

#: modules that own injection sites, imported lazily before a plan is
#: declared invalid so validation never depends on caller import order.
_SITE_MODULES = (
    "repro.bench.artifacts",
    "repro.bench.runner",
    "repro.serving.simulator",
)


def register_site(site: str) -> str:
    """Declare ``site`` as a real injection site; returns the name.

    Idempotent. Call it at module scope next to the constant the module
    passes to :func:`maybe_inject`, so importing the module is what
    makes its sites plannable.
    """
    if not site or not isinstance(site, str):
        raise ConfigurationError(f"chaos site name must be a non-empty string, got {site!r}")
    _SITES.add(site)
    return site


def _ensure_sites_loaded() -> None:
    """Import the site-owning modules so their registrations land."""
    import importlib

    for module in _SITE_MODULES:
        try:
            importlib.import_module(module)
        except ImportError:  # pragma: no cover - optional subsystem absent
            pass


def known_sites() -> tuple[str, ...]:
    """All registered injection sites, sorted."""
    _ensure_sites_loaded()
    return tuple(sorted(_SITES))


@dataclass(frozen=True)
class ChaosRule:
    """One injection rule: *where*, *what*, *how often*, *how long*.

    Attributes
    ----------
    site:   injection-site name the rule applies to (exact match).
    kind:   one of ``exception | ioerror | corrupt | hang | kill``.
    rate:   fraction of keys at the site that fail (hash-selected).
    match:  substring filter on the key ("" = every key).
    max_fires:  attempts (per key) the rule fires on before going quiet.
    hang_seconds:  sleep length for ``hang`` rules.
    """

    site: str
    kind: str
    rate: float = 1.0
    match: str = ""
    max_fires: int = 1
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"chaos kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if not (0.0 <= self.rate <= 1.0):
            raise ConfigurationError(f"chaos rate must be in [0, 1], got {self.rate}")
        if self.max_fires < 1:
            raise ConfigurationError(f"max_fires must be >= 1, got {self.max_fires}")
        if self.hang_seconds <= 0:
            raise ConfigurationError(
                f"hang_seconds must be positive, got {self.hang_seconds}"
            )

    def as_dict(self) -> dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "rate": self.rate,
            "match": self.match,
            "max_fires": self.max_fires,
            "hang_seconds": self.hang_seconds,
        }


@dataclass(frozen=True)
class ChaosPlan:
    """A seed plus an ordered rule list; fully deterministic."""

    seed: int = 0
    rules: tuple[ChaosRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        unknown = sorted({r.site for r in self.rules} - _SITES)
        if unknown:
            # Late registrations (modules not yet imported) are the
            # common false positive — load the site owners first.
            _ensure_sites_loaded()
            unknown = sorted({r.site for r in self.rules} - _SITES)
        if unknown:
            raise ChaosError(
                f"chaos plan names unknown injection site(s) {unknown}; "
                f"known sites: {sorted(_SITES)}"
            )

    def firing_rule(self, site: str, key: str, attempt: int = 1) -> ChaosRule | None:
        """The first rule that fires at ``(site, key, attempt)``, if any."""
        for index, rule in enumerate(self.rules):
            if rule.site != site or rule.match not in key:
                continue
            if attempt > rule.max_fires:
                continue
            if hash_unit(self.seed, site, index, key) < rule.rate:
                return rule
        return None

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": CHAOS_FORMAT,
                "seed": self.seed,
                "rules": [r.as_dict() for r in self.rules],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ChaosPlan":
        """Parse a hand-written plan: ``format``/``seed``/``rules`` and a
        rule's defaulted knobs may be omitted, no unknown key is accepted."""
        payload = canon.loads(text, "chaos plan")
        canon.check_keys(payload, "chaos plan", (), ("format", "seed", "rules"))
        canon.check_tag(payload, "format", CHAOS_FORMAT, "chaos plan")
        rules = payload.get("rules", [])
        for entry in rules:
            canon.check_keys(entry, "chaos plan rule", *canon.dataclass_keys(ChaosRule))
        return cls(seed=int(payload.get("seed", 0)), rules=tuple(ChaosRule(**r) for r in rules))


_PLAN: ChaosPlan | None = None
_ENV_CACHE: tuple[str, ChaosPlan] | None = None


def install_plan(plan: ChaosPlan | None) -> None:
    """Install (or with ``None``, clear) the process-wide plan.

    The plan is also mirrored into ``$REPRO_CHAOS`` so spawn workers —
    which import everything fresh — inherit it, exactly like the cache
    and telemetry environment switches.
    """
    global _PLAN
    _PLAN = plan
    if plan is None:
        os.environ.pop(CHAOS_ENV, None)
    else:
        os.environ[CHAOS_ENV] = plan.to_json()


def active_plan() -> ChaosPlan | None:
    """The installed plan, or one parsed from ``$REPRO_CHAOS``, or None."""
    global _ENV_CACHE
    if _PLAN is not None:
        return _PLAN
    text = os.environ.get(CHAOS_ENV, "")
    if not text:
        return None
    if _ENV_CACHE is None or _ENV_CACHE[0] != text:
        _ENV_CACHE = (text, ChaosPlan.from_json(text))
    return _ENV_CACHE[1]


def maybe_inject(
    site: str, key: str, *, attempt: int = 1, path: os.PathLike | str | None = None
) -> None:
    """Fire the active plan's fault for ``(site, key, attempt)``, if any.

    ``path`` is required for ``corrupt`` rules to have a target; other
    kinds ignore it. Injections are counted under ``chaos.injections``
    (labelled by site and kind) before the effect, so even a ``kill``
    leaves a trace in worker-local telemetry.
    """
    plan = active_plan()
    if plan is None:
        return
    rule = plan.firing_rule(site, key, attempt)
    if rule is None:
        return
    if telemetry.enabled():
        telemetry.active().counter("chaos.injections", site=site, kind=rule.kind).inc()
    if rule.kind == "exception":
        raise ChaosError(f"chaos: injected failure at {site} for {key!r}")
    if rule.kind == "ioerror":
        raise OSError(f"chaos: injected I/O error at {site} for {key!r}")
    if rule.kind == "hang":
        time.sleep(rule.hang_seconds)
        return
    if rule.kind == "corrupt":
        if path is not None and os.path.exists(path):
            with open(path, "wb") as fh:
                fh.write(b"chaos: corrupted artifact\x00")
        return
    # kill: flush stdio so partial output is not lost with the process.
    try:
        import sys

        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # pragma: no cover - flushing is best-effort
        pass
    os._exit(KILL_EXIT_CODE)
