"""Retry policy: exponential backoff with deterministic jitter.

The executor (:class:`repro.runner.executor.Runner`) retries a pooled
job that exceeded its timeout with delays that grow exponentially, so a
persistent fault backs off fast, plus jitter, so jobs timed out by the
same fault do not retry in lockstep.

The jitter is *deterministic*: it is drawn from a PRNG seeded by the
``(token, attempt)`` pair, so two processes retrying different jobs
spread out, while a test replaying the same job sees the same delays.
Wall-clock sleeps never influence results — only when they happen — so
determinism here is purely about debuggability.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with bounded, deterministically-jittered delays.

    Attributes:
        base: delay before the first retry (seconds).
        factor: growth per attempt (``base * factor**(attempt-1)``).
        jitter: maximum *fractional* extra delay; ``0.5`` stretches each
            delay by up to 50%.  ``0`` disables jitter entirely.
        max_delay: hard ceiling on any single delay.
    """

    base: float = 0.05
    factor: float = 2.0
    jitter: float = 0.5
    max_delay: float = 30.0

    def delay(self, attempt: int, token: str = "") -> float:
        """The delay before retry number ``attempt`` (1-based).

        ``token`` seeds the jitter — pass a job key or worker id so
        concurrent retriers decorrelate.
        """
        raw = self.base * (self.factor ** max(0, attempt - 1))
        raw = min(raw, self.max_delay)
        if self.jitter <= 0 or raw <= 0:
            return raw
        fraction = random.Random(f"{token}:{attempt}").random()
        return min(raw * (1.0 + self.jitter * fraction), self.max_delay)

    def sleep(self, attempt: int, token: str = "") -> float:
        """Sleep for :meth:`delay`; return the slept duration."""
        duration = self.delay(attempt, token)
        if duration > 0:
            time.sleep(duration)
        return duration

    def delays(self, attempts: int, token: str = "") -> Iterator[float]:
        """The delay sequence for ``attempts`` retries (for tests/docs)."""
        for attempt in range(1, attempts + 1):
            yield self.delay(attempt, token)
