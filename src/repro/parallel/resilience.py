"""Worker watchdogs, retry budgets, and poison-point quarantine.

The sweep engine's original failure story was all-or-nothing: a worker
crash cost its chunk (transparently re-run in-process), but a *hung*
worker stalled the whole sweep forever, and a repeatedly crashing
worker re-ran its chunk in the parent on the first failure, losing the
benefit of the pool.  This module supplies the policy objects the
engine uses to do better:

- :class:`RetryPolicy` -- a capped exponential backoff, the same shape
  as the source-retry backoff in :mod:`repro.faults.sim`
  (``min(base * 2**(attempt-1), cap)``): simulated senders and real
  worker pools face the same thundering-herd physics.
- :class:`WatchdogConfig` -- per-point soft/hard timeouts measured
  against **worker heartbeats** (each worker beats before every point),
  so a slow point triggers a soft warning, and a genuinely hung one is
  killed and requeued.
- :class:`PointTracker` -- per-point failure accounting with
  quarantine: a point whose chunk has failed ``quarantine_after`` times
  is a *poison point*; it stops being requeued to the pool and runs
  in-process instead, where a deterministic error surfaces exactly as
  it would serially.

Every decision these objects drive is observable: the engine emits
``sim.resilience.*`` metrics and, through :func:`repro.obs.sink.emit_event`,
``kind="resilience-event"`` telemetry records and ``resilience.<event>``
trace instants (see docs/RESILIENCE.md and docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

__all__ = ["PointTracker", "RetryPolicy", "WatchdogConfig"]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Capped exponential backoff between pool retry rounds.

    Attempt ``k`` (1-based) waits ``min(base * 2**(k-1), cap)`` seconds
    -- the backoff shape of :func:`repro.faults.sim.simulate_degraded_multicast`,
    scaled from simulated microseconds to host seconds.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff durations must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        return min(self.backoff_base_s * (2 ** (attempt - 1)), self.backoff_cap_s)


@dataclass(frozen=True, slots=True)
class WatchdogConfig:
    """Tuning for the engine's hung-worker watchdog.

    Attributes:
        soft_timeout_s: heartbeat age after which a chunk is flagged
            (``sim.resilience.soft_timeouts``) but left running.
        hard_timeout_s: heartbeat age after which the pool is declared
            hung: its processes are killed and unfinished chunks are
            requeued under the retry budget.
        poll_s: how often the parent wakes to check heartbeats.
        retry: backoff policy between pool rounds.
        quarantine_after: chunk failures (crash or hang) after which a
            point is poison and runs in-process only.
        pool_loss_limit: consecutive pool losses (hang kills or broken
            pools) after which the engine degrades to in-process
            execution for everything outstanding.
    """

    soft_timeout_s: float = 30.0
    hard_timeout_s: float = 120.0
    poll_s: float = 0.1
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    quarantine_after: int = 3
    pool_loss_limit: int = 3

    def __post_init__(self) -> None:
        if self.hard_timeout_s < self.soft_timeout_s:
            raise ValueError(
                f"hard timeout ({self.hard_timeout_s}s) must be >= "
                f"soft timeout ({self.soft_timeout_s}s)"
            )
        if self.poll_s <= 0:
            raise ValueError(f"poll_s must be > 0, got {self.poll_s}")
        if self.quarantine_after < 1:
            raise ValueError(f"quarantine_after must be >= 1, got {self.quarantine_after}")
        if self.pool_loss_limit < 1:
            raise ValueError(f"pool_loss_limit must be >= 1, got {self.pool_loss_limit}")

    @classmethod
    def from_env(cls) -> "WatchdogConfig":
        """Defaults overridable via ``REPRO_WATCHDOG_{SOFT,HARD}_S`` and
        ``REPRO_WATCHDOG_RETRIES`` (for ops tuning without code)."""
        defaults = cls()
        soft = float(os.environ.get("REPRO_WATCHDOG_SOFT_S", defaults.soft_timeout_s))
        hard = float(os.environ.get("REPRO_WATCHDOG_HARD_S", defaults.hard_timeout_s))
        retries = int(
            os.environ.get("REPRO_WATCHDOG_RETRIES", defaults.retry.max_retries)
        )
        return cls(
            soft_timeout_s=soft,
            hard_timeout_s=max(hard, soft),
            retry=RetryPolicy(max_retries=retries),
        )


class PointTracker:
    """Per-point failure accounting and poison-point quarantine."""

    def __init__(self, quarantine_after: int) -> None:
        if quarantine_after < 1:
            raise ValueError(f"quarantine_after must be >= 1, got {quarantine_after}")
        self.quarantine_after = quarantine_after
        self.failures: dict[int, int] = {}
        self.quarantined: set[int] = set()

    def record_failure(self, index: int) -> bool:
        """Count one failure for point ``index``; True once quarantined."""
        count = self.failures.get(index, 0) + 1
        self.failures[index] = count
        if count >= self.quarantine_after:
            self.quarantined.add(index)
            return True
        return False

    def is_quarantined(self, index: int) -> bool:
        return index in self.quarantined

    @property
    def total_failures(self) -> int:
        return sum(self.failures.values())
