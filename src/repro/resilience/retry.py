"""Retry policy: how hard the streaming service fights for a failed repair.

When an incremental repair of a batch fails, the service retries it
after a capped exponential backoff, up to ``max_retries`` times; after
the retry budget is spent it escalates to a full re-detection over the
whole store (see :mod:`repro.stream.service`).  The policy only sets
the parameters of that schedule.

Backoffs can additionally carry *decorrelated jitter* (``jitter=True``):
when a shared fault (a full disk, an overloaded service) fails many
repairs at once, a deterministic schedule wakes every retry at the same
instant and the herd stampedes the same resource again.  Jittered delays
follow the decorrelated-jitter rule
``d_k = min(cap, uniform(base, 3·d_{k-1}))`` with the random draw keyed
by ``(jitter_seed, token, retry)`` — a pure function of its inputs, so
tests stay deterministic while distinct ``token`` values (the streaming
service passes its batch sequence number) spread retries apart in time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Parameters of the repair-retry backoff schedule.

    Attributes
    ----------
    max_retries:
        Re-executions allowed after the first attempt; ``0`` means any
        failure escalates at once.
    backoff_base_s:
        Delay before the first retry.
    backoff_factor:
        Multiplier applied per subsequent retry.
    backoff_cap_s:
        Upper bound on any single backoff delay.
    jitter:
        Randomize each delay with the decorrelated-jitter rule so
        simultaneous failures don't retry in lockstep.  Off by default:
        the undecorated schedule is exactly the historical capped
        exponential.
    jitter_seed:
        Seed of the jitter's random draws.  Every delay is a pure
        function of ``(jitter_seed, token, retry)``, so a fixed seed
        keeps :meth:`delays` (and any test built on it) deterministic.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap_s: float = 1.0
    jitter: bool = False
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be at least 1")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("backoff_cap_s must be at least backoff_base_s")

    def backoff_s(self, retry: int, *, token: int = 0) -> float:
        """Backoff before the ``retry``-th re-execution (1-based).

        ``token`` identifies the retrying unit (a batch sequence
        number, …); with :attr:`jitter` enabled, different
        tokens draw different delays so synchronized failures fan out
        instead of thundering back together.  Without jitter the token
        is ignored and the schedule is the capped exponential.
        """
        if retry < 1:
            raise ValueError("retry numbers are 1-based")
        if not self.jitter:
            return min(
                self.backoff_cap_s,
                self.backoff_base_s * self.backoff_factor ** (retry - 1),
            )
        # Decorrelated jitter: d_k = min(cap, uniform(base, 3*d_{k-1})),
        # d_0 = base.  Each draw is keyed by (seed, token, k) alone, so
        # the whole schedule is a pure function of its arguments —
        # independent of call order, reproducible in tests.
        delay = self.backoff_base_s
        for k in range(1, retry + 1):
            r = float(
                np.random.default_rng(
                    [int(self.jitter_seed), int(token), k]
                ).random()
            )
            lo = self.backoff_base_s
            hi = max(3.0 * delay, lo)
            delay = min(self.backoff_cap_s, lo + r * (hi - lo))
        return delay

    def delays(self, *, token: int = 0) -> tuple[float, ...]:
        """The full backoff schedule, one entry per allowed retry."""
        return tuple(
            self.backoff_s(k, token=token)
            for k in range(1, self.max_retries + 1)
        )
