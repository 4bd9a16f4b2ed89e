"""Retry and circuit-breaker policies.

The policies are *value objects* — they hold knobs and pure arithmetic,
never threads or timers — so the same instances work in the suite
runner's parent process, inside spawn workers, and in unit tests with a
fake clock. Determinism is a design requirement throughout: backoff
jitter comes from a seeded hash of ``(seed, key, attempt)``, not from a
shared RNG whose consumption order would differ between parallel runs.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass, field

from repro import telemetry
from repro.errors import ConfigurationError

__all__ = [
    "RetryPolicy",
    "CircuitBreaker",
    "call_with_retry",
    "hash_unit",
]


def hash_unit(*parts: object) -> float:
    """Deterministic uniform draw in ``[0, 1)`` from the given parts.

    The shared primitive behind backoff jitter and chaos decisions: a
    SHA-256 over the ``repr`` of the parts, mapped to the unit interval.
    Unlike a sequential RNG, the value depends only on the *identity* of
    the decision point, never on how many draws other workers made
    first — the property that keeps parallel chaos runs reproducible.
    """
    payload = "\x1f".join(repr(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    (value,) = struct.unpack(">Q", digest[:8])
    return value / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded deterministic jitter.

    ``delay(attempt)`` for attempts ``1, 2, …`` grows as
    ``base_delay · multiplier^(attempt-1)`` capped at ``max_delay``, plus
    a jitter of up to ``jitter`` (fractional) drawn from
    :func:`hash_unit` — the same ``(seed, key, attempt)`` always sleeps
    the same amount.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("retry delays cannot be negative")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not (0.0 <= self.jitter <= 1.0):
            raise ConfigurationError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (1-based, capped)."""
        if attempt < 1:
            raise ConfigurationError(f"attempt is 1-based, got {attempt}")
        raw = self.base_delay * self.multiplier ** (attempt - 1)
        capped = min(raw, self.max_delay)
        return capped * (1.0 + self.jitter * hash_unit(self.seed, key, attempt))

    def attempts(self) -> range:
        """``range`` of 1-based attempt numbers this policy allows."""
        return range(1, self.max_attempts + 1)


@dataclass
class CircuitBreaker:
    """Trip after ``failure_threshold`` consecutive failures.

    The suite runner uses it as the "stop fighting the pool" switch:
    every worker death records a failure, every delivered outcome a
    success, and once the breaker opens the remaining experiments run
    serially in-process. There is no half-open probing — within one
    suite run a pool that died ``failure_threshold`` times in a row is
    not worth re-entering — so ``tripped`` latches until :meth:`reset`.
    """

    failure_threshold: int = 3
    site: str = ""
    consecutive_failures: int = field(default=0, init=False)
    tripped: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def record_failure(self) -> bool:
        """Count one failure; returns ``True`` if this one tripped it."""
        self.consecutive_failures += 1
        if not self.tripped and self.consecutive_failures >= self.failure_threshold:
            self.tripped = True
            if telemetry.enabled():
                telemetry.active().counter(
                    "resilience.breaker_trips", site=self.site
                ).inc()
            return True
        return False

    def reset(self) -> None:
        self.consecutive_failures = 0
        self.tripped = False


def call_with_retry(
    fn,
    policy: RetryPolicy,
    *,
    retry_on: tuple[type[BaseException], ...] = (Exception,),
    key: str = "",
    site: str = "call",
    sleep=time.sleep,
):
    """Call ``fn(attempt)`` under ``policy``, backing off between tries.

    ``fn`` receives the 1-based attempt number (so callers can thread it
    into chaos sites and error messages). Exceptions matching
    ``retry_on`` are retried until the policy is exhausted, then
    re-raised; anything else propagates immediately. Retries and final
    give-ups are counted under ``resilience.retries`` /
    ``resilience.giveups`` with the ``site`` label.
    """
    last: BaseException | None = None
    for attempt in policy.attempts():
        try:
            return fn(attempt)
        except retry_on as exc:
            last = exc
            if attempt >= policy.max_attempts:
                if telemetry.enabled():
                    telemetry.active().counter(
                        "resilience.giveups", site=site
                    ).inc()
                raise
            if telemetry.enabled():
                telemetry.active().counter("resilience.retries", site=site).inc()
            sleep(policy.delay(attempt, key))
    raise last  # pragma: no cover - loop always returns or raises
