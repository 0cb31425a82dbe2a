"""Worker watchdogs, retry budgets, and poison-point quarantine.

A parallel sweep must survive its workers: a crash may cost a chunk,
never the sweep, and a *hung* worker must be killed rather than stall
it forever.  This module supplies the policy objects the engine and
its coordinator use for that:

- :class:`RetryPolicy` -- a capped exponential backoff, the same shape
  as the source-retry backoff in :mod:`repro.faults.sim`
  (``min(base * 2**(attempt-1), cap)``): simulated senders and real
  workers face the same thundering-herd physics.
- :class:`WatchdogConfig` -- per-point soft/hard timeouts measured
  against **worker heartbeats** (workers beat while they make
  progress), so a slow point triggers a soft warning, and a genuinely
  hung worker is killed and its chunk requeued.  Every parallel sweep
  runs under one.
- :class:`PointTracker` -- per-point failure accounting with
  quarantine: a point whose chunk has failed ``quarantine_after`` times
  is a *poison point*; it stops being requeued to workers and runs
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
    """Capped exponential backoff between retry rounds.

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
        # negated comparisons, so that NaN fails them too
        if not (self.backoff_base_s >= 0 and self.backoff_cap_s >= 0):
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
        hard_timeout_s: heartbeat age after which a worker is declared
            hung (``sim.resilience.hung_chunks``): its link is dropped,
            a local worker is killed, and its chunk is requeued under
            the retry budget.
        poll_s: how often the coordinator checks heartbeats, and how
            often local workers beat.
        retry: backoff policy between retry rounds.
        quarantine_after: chunk failures (crash or hang) after which a
            point is poison and runs in-process only.
        pool_loss_limit: dispatch rounds that lost a worker after which
            the engine degrades to in-process execution for everything
            outstanding.
    """

    soft_timeout_s: float = 30.0
    hard_timeout_s: float = 120.0
    poll_s: float = 0.1
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    quarantine_after: int = 3
    pool_loss_limit: int = 3

    def __post_init__(self) -> None:
        # negated comparisons, so that NaN fails them too: a NaN timeout
        # would never expire, and a NaN poll would spin
        if not self.soft_timeout_s > 0:
            raise ValueError(f"soft timeout must be > 0, got {self.soft_timeout_s}s")
        if not self.hard_timeout_s > 0:
            raise ValueError(f"hard timeout must be > 0, got {self.hard_timeout_s}s")
        if self.hard_timeout_s < self.soft_timeout_s:
            raise ValueError(
                f"hard timeout ({self.hard_timeout_s}s) must be >= "
                f"soft timeout ({self.soft_timeout_s}s)"
            )
        if not self.poll_s > 0:
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
        soft = _env_number("REPRO_WATCHDOG_SOFT_S", float, defaults.soft_timeout_s)
        hard = _env_number("REPRO_WATCHDOG_HARD_S", float, defaults.hard_timeout_s)
        retries = _env_number("REPRO_WATCHDOG_RETRIES", int, defaults.retry.max_retries)
        return cls(
            soft_timeout_s=soft,
            hard_timeout_s=max(hard, soft),
            retry=RetryPolicy(max_retries=retries),
        )


def _env_number(name: str, parse, default):
    """``parse(os.environ[name])``, or ``default`` when unset; a bad
    value raises a ValueError that names the variable."""
    raw = os.environ.get(name, "")
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not a valid {parse.__name__}") from None


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
