"""RetryPolicy: growth, ceiling, jitter determinism."""

from __future__ import annotations

import time

from repro.runner.retry import RetryPolicy


class TestRetryPolicy:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(base=0.1, factor=2.0, jitter=0.0)
        assert list(policy.delays(4)) == [0.1, 0.2, 0.4, 0.8]

    def test_max_delay_caps_the_curve(self):
        policy = RetryPolicy(base=1.0, factor=10.0, jitter=0.0, max_delay=5.0)
        assert list(policy.delays(3)) == [1.0, 5.0, 5.0]

    def test_jitter_stays_within_the_declared_fraction(self):
        policy = RetryPolicy(base=0.1, factor=2.0, jitter=0.5)
        for attempt in range(1, 6):
            raw = 0.1 * 2 ** (attempt - 1)
            for token in ("job-a", "job-b", "job-c"):
                delay = policy.delay(attempt, token=token)
                assert raw <= delay <= raw * 1.5

    def test_jitter_is_deterministic_per_token_and_attempt(self):
        policy = RetryPolicy(base=0.1, jitter=1.0)
        assert policy.delay(3, token="t") == policy.delay(3, token="t")
        assert policy.delay(3, token="t") != policy.delay(3, token="u")
        assert policy.delay(3, token="t") != policy.delay(4, token="t")

    def test_jitter_respects_max_delay(self):
        policy = RetryPolicy(base=4.0, factor=1.0, jitter=1.0, max_delay=5.0)
        for attempt in range(1, 4):
            assert policy.delay(attempt, token="x") <= 5.0

    def test_sleep_returns_the_slept_duration(self):
        policy = RetryPolicy(base=0.01, jitter=0.0)
        t0 = time.monotonic()
        slept = policy.sleep(1, token="s")
        assert slept == 0.01
        assert time.monotonic() - t0 >= 0.01
