"""Worker watchdogs and the retry budget.

A parallel sweep must survive its workers: a crash may cost a chunk,
never the sweep, and a *hung* worker must be killed rather than stall
it forever.  This module supplies the policy objects the engine and
its coordinator use for that:

- :class:`RetryPolicy` -- the one retry budget: a chunk a round returns
  as retryable is requeued for at most ``max_retries`` rounds, each
  after a capped exponential backoff of the same shape as the
  source-retry backoff in :mod:`repro.faults.sim`
  (``min(base * 2**(attempt-1), cap)``): simulated senders and real
  workers face the same thundering-herd physics.  Points still failing
  after the budget run in-process, where a deterministic error surfaces
  exactly as it would serially.
- :class:`WatchdogConfig` -- per-point soft/hard timeouts measured
  against **worker heartbeats** (workers beat while they make
  progress, at the coordinator's ``poll_s``), so a slow point triggers
  a soft warning, and a genuinely hung worker is killed and its chunk
  requeued.  Every parallel sweep runs under one.

Every decision these objects drive is observable: the engine emits
``sim.resilience.*`` metrics and, through :func:`repro.obs.sink.emit_event`,
``kind="resilience-event"`` telemetry records and ``resilience.<event>``
trace instants (see docs/RESILIENCE.md and docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

__all__ = ["RetryPolicy", "WatchdogConfig"]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """The retry budget: ``max_retries`` requeue rounds, each after a
    capped exponential backoff.

    Retry ``k`` (1-based) waits ``min(base * 2**(k-1), cap)`` seconds
    -- the backoff shape of :func:`repro.faults.sim.simulate_degraded_multicast`,
    scaled from simulated microseconds to host seconds, where each
    simulated send likewise has one ``max_retries`` budget.
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
        poll_s: how often the coordinator checks heartbeats, and the
            one interval every worker beats at (local workers get it
            when forked, remote ones in the welcome frame).
        retry: the retry budget and its backoff.
    """

    soft_timeout_s: float = 30.0
    hard_timeout_s: float = 120.0
    poll_s: float = 0.1
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        # negated comparisons, so that NaN fails them too: a NaN timeout
        # would never expire, and a NaN poll would spin; an infinite
        # poll is a beat interval no worker accepts
        if not self.soft_timeout_s > 0:
            raise ValueError(f"soft timeout must be > 0, got {self.soft_timeout_s}s")
        if not self.hard_timeout_s > 0:
            raise ValueError(f"hard timeout must be > 0, got {self.hard_timeout_s}s")
        if self.hard_timeout_s < self.soft_timeout_s:
            raise ValueError(
                f"hard timeout ({self.hard_timeout_s}s) must be >= "
                f"soft timeout ({self.soft_timeout_s}s)"
            )
        if not 0 < self.poll_s < math.inf:
            raise ValueError(f"poll_s must be > 0 and finite, got {self.poll_s}")

    @classmethod
    def from_env(cls) -> "WatchdogConfig":
        """Defaults overridable via ``REPRO_WATCHDOG_{SOFT,HARD}_S`` and
        ``REPRO_WATCHDOG_RETRIES`` (for ops tuning without code).  A
        value it rejects raises a ValueError that names the variable
        and its raw value."""
        defaults = cls()
        soft = _env_number("REPRO_WATCHDOG_SOFT_S", float, defaults.soft_timeout_s)
        hard = _env_number("REPRO_WATCHDOG_HARD_S", float, defaults.hard_timeout_s)
        retries = _env_number("REPRO_WATCHDOG_RETRIES", int, defaults.retry.max_retries)
        # the defaults pass, so a value failing here came from its
        # variable; NaN fails every comparison
        for name, ok, rule in (
            ("REPRO_WATCHDOG_SOFT_S", soft > 0, "soft timeout must be > 0"),
            ("REPRO_WATCHDOG_HARD_S", hard > 0, "hard timeout must be > 0"),
            ("REPRO_WATCHDOG_RETRIES", retries >= 0, "retries must be >= 0"),
        ):
            if not ok:
                raise ValueError(f"{name}={os.environ[name]!r}: {rule}")
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

