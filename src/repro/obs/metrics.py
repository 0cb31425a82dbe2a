"""A dependency-free metrics registry: counters, gauges, timers, histograms.

The paper's evaluation rests on *measurement* (nCUBE-2 runs, MultiSim
traces); this module is the reproduction's common measurement substrate.
Every instrument lives in a :class:`MetricsRegistry` and snapshots to a
plain dict, so simulation drivers, experiments, and the CLI all export
through one path (JSON Lines via :mod:`repro.obs.telemetry`).

Design constraints, in order:

1. **Zero overhead when disabled.**  The simulation drivers accept
   ``metrics=None`` and guard every instrumentation block on it, so the
   hot path of an un-instrumented run is byte-for-byte the same set of
   operations as before this module existed.
2. **No dependencies.**  Pure stdlib; importable from anywhere in the
   package without cycles.
3. **Plain-dict snapshots.**  ``snapshot()`` returns only str/int/float
   containers so the result is directly JSON-serializable.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator, Sequence

__all__ = [
    "CORE_METRIC_NAMES",
    "Counter",
    "DELAY_BUCKETS_US",
    "Gauge",
    "Histogram",
    "METRIC_FAMILIES",
    "MetricsRegistry",
    "SERVICE_LATENCY_BUCKETS_MS",
    "Timer",
    "UTILIZATION_BUCKETS",
    "is_registered_metric",
]

#: The registered ``sim.*`` metric families.  Every instrument name in
#: the codebase must live in one of these namespaces (or be a core
#: simulator name from :data:`CORE_METRIC_NAMES`); the ``repro.lint``
#: REP006 rule enforces this statically, so adding a family here is
#: what makes its names legal everywhere.
METRIC_FAMILIES: tuple[str, ...] = (
    "sim.fabric",
    "sim.faults",
    "sim.lint",
    "sim.parallel",
    "sim.resilience",
    "sim.service",
)

#: Core simulator instruments that predate the family namespaces.
CORE_METRIC_NAMES: frozenset[str] = frozenset(
    {
        "sim.runs",
        "sim.wall",
        "sim.events",
        "sim.delay_us",
        "sim.blocked_us",
        "sim.completion_us",
        "sim.worms",
        "sim.worm_blocked_us",
    }
)


def is_registered_metric(name: str) -> bool:
    """Whether ``name`` conforms to the metric-naming contract."""
    if name in CORE_METRIC_NAMES:
        return True
    return any(name.startswith(f"{family}.") for family in METRIC_FAMILIES)

#: Default bucket upper bounds (microseconds) for delay / blocked-time
#: distributions: geometric, spanning sub-hop times to full 10-cube
#: broadcast delays under the nCUBE-2 constants.
DELAY_BUCKETS_US: tuple[float, ...] = (
    50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0,
    10_000.0, 25_000.0, 50_000.0, 100_000.0,
)

#: Default buckets for per-channel utilization fractions in ``[0, 1]``.
UTILIZATION_BUCKETS: tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)

#: Request-latency buckets (milliseconds) for the schedule-planning
#: service: dense below 50 ms (the service SLO region) so the histogram
#: resolves it finely, geometric above it for the overload tail.
SERVICE_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.5, 10.0, 15.0,
    20.0, 25.0, 35.0, 50.0, 75.0, 100.0, 150.0, 250.0, 500.0,
    1_000.0, 2_500.0, 10_000.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc by {amount})")
        self.value += amount

    def snapshot(self) -> dict[str, float]:
        return {"type": "counter", "value": self.value}  # type: ignore[dict-item]


class Gauge:
    """A point-in-time value; remembers its extrema."""

    __slots__ = ("name", "value", "min", "max", "_touched")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.min = 0.0
        self.max = 0.0
        self._touched = False

    def set(self, value: float) -> None:
        if not self._touched:
            self.min = self.max = value
            self._touched = True
        else:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        self.value = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def snapshot(self) -> dict[str, float]:
        return {  # type: ignore[return-value]
            "type": "gauge",
            "value": self.value,
            "min": self.min,
            "max": self.max,
        }


class Timer:
    """Accumulated wall-clock time (seconds) over any number of spans."""

    __slots__ = ("name", "total_seconds", "count")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total_seconds = 0.0
        self.count = 0

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"timer {self.name} cannot record negative time")
        self.total_seconds += seconds
        self.count += 1

    @contextmanager
    def time(self) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.record(time.perf_counter() - t0)

    def snapshot(self) -> dict[str, float]:
        return {  # type: ignore[return-value]
            "type": "timer",
            "total_seconds": self.total_seconds,
            "count": self.count,
            "mean_seconds": self.total_seconds / self.count if self.count else 0.0,
        }


class Histogram:
    """Fixed-bucket histogram (cumulative-free, one overflow bucket).

    ``bounds`` are upper bucket edges in increasing order; an
    observation ``v`` lands in the first bucket with ``v <= bound``, or
    in the overflow bucket past the last bound.
    """

    __slots__ = ("name", "bounds", "counts", "overflow", "count", "sum", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float] = DELAY_BUCKETS_US) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name} bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        i = bisect_left(self.bounds, value)
        if i < len(self.counts):
            self.counts[i] += 1
        else:
            self.overflow += 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, object]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


class MetricsRegistry:
    """A flat namespace of instruments, snapshot-able to a plain dict.

    Instruments are created on first access (``registry.counter("x")``)
    and are idempotent thereafter; asking for an existing name with a
    different instrument type is an error (one name, one meaning).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Timer | Histogram] = {}

    def _get(self, name: str, cls, *args):
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = cls(name, *args)
        elif type(inst) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {type(inst).__name__}, "
                f"not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def timer(self, name: str) -> Timer:
        return self._get(name, Timer)

    def histogram(self, name: str, bounds: Sequence[float] = DELAY_BUCKETS_US) -> Histogram:
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = Histogram(name, bounds)
        elif type(inst) is not Histogram:
            raise TypeError(
                f"metric {name!r} already registered as {type(inst).__name__}, not Histogram"
            )
        return inst  # type: ignore[return-value]

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict]:
        """All instruments as ``{name: {"type": ..., ...}}`` (JSON-safe)."""
        return {name: self._instruments[name].snapshot() for name in sorted(self._instruments)}

