"""Unit tests for the retry/breaker policy value objects."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.errors import ConfigurationError
from repro.resilience import (
    CircuitBreaker,
    RetryPolicy,
    call_with_retry,
    hash_unit,
)


class TestHashUnit:
    def test_range_and_determinism(self):
        values = [hash_unit(0, "site", i, "key") for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert values == [hash_unit(0, "site", i, "key") for i in range(200)]

    def test_distinct_inputs_distinct_values(self):
        assert hash_unit(0, "a") != hash_unit(0, "b")
        assert hash_unit(0, "a") != hash_unit(1, "a")

    def test_roughly_uniform(self):
        values = [hash_unit("u", i) for i in range(2000)]
        mean = sum(values) / len(values)
        assert 0.45 < mean < 0.55


class TestRetryPolicy:
    def test_exponential_growth_capped(self):
        p = RetryPolicy(max_attempts=6, base_delay=0.1, multiplier=2.0,
                        max_delay=0.5, jitter=0.0)
        delays = [p.delay(a) for a in p.attempts()]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5, 0.5]

    def test_jitter_bounded_and_deterministic(self):
        p = RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0,
                        jitter=0.25, seed=7)
        d = p.delay(1, key="k")
        assert 1.0 <= d <= 1.25
        assert d == p.delay(1, key="k")
        assert d != RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0,
                                jitter=0.25, seed=8).delay(1, key="k")

    def test_attempts_range(self):
        assert list(RetryPolicy(max_attempts=3).attempts()) == [1, 2, 3]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -1.0},
            {"multiplier": 0.5},
            {"jitter": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_delay_rejects_zero_attempt(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().delay(0)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        b = CircuitBreaker(3)
        assert not b.record_failure()
        assert not b.record_failure()
        assert b.record_failure()  # third consecutive trips
        assert b.tripped

    def test_success_resets_the_count(self):
        b = CircuitBreaker(2)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert not b.tripped

    def test_latches_until_reset(self):
        b = CircuitBreaker(1)
        b.record_failure()
        assert b.tripped
        b.record_success()
        assert b.tripped  # no half-open probing
        b.reset()
        assert not b.tripped

    def test_trip_counts_in_telemetry(self):
        telemetry.set_enabled(True)
        b = CircuitBreaker(1, site="test")
        b.record_failure()
        reg = telemetry.registry()
        assert reg.counter("resilience.breaker_trips", site="test").value == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(0)


class TestCallWithRetry:
    def test_succeeds_after_transient_failures(self):
        sleeps = []
        calls = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=4, base_delay=0.5, jitter=0.0)
        out = call_with_retry(flaky, policy, retry_on=(OSError,),
                              sleep=sleeps.append)
        assert out == "ok"
        assert calls == [1, 2, 3]
        assert sleeps == [policy.delay(1), policy.delay(2)]

    def test_exhaustion_reraises_last_error(self):
        def always(attempt):
            raise OSError(f"attempt {attempt}")

        with pytest.raises(OSError, match="attempt 2"):
            call_with_retry(always, RetryPolicy(max_attempts=2),
                            retry_on=(OSError,), sleep=lambda s: None)

    def test_non_matching_exception_propagates_immediately(self):
        calls = []

        def bad(attempt):
            calls.append(attempt)
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            call_with_retry(bad, RetryPolicy(max_attempts=5),
                            retry_on=(OSError,), sleep=lambda s: None)
        assert calls == [1]

    def test_retry_and_giveup_counters(self):
        telemetry.set_enabled(True)

        def always(attempt):
            raise OSError("boom")

        with pytest.raises(OSError):
            call_with_retry(always, RetryPolicy(max_attempts=3),
                            retry_on=(OSError,), site="unit",
                            sleep=lambda s: None)
        reg = telemetry.registry()
        assert reg.counter("resilience.retries", site="unit").value == 2
        assert reg.counter("resilience.giveups", site="unit").value == 1
