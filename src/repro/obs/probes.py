"""Simulator profiling probes.

A :class:`Probe` observes the event kernel from the outside: the
:class:`~repro.simulator.engine.Simulator` calls ``on_schedule`` when
an event enters the heap and ``on_fire`` after a callback runs (with
the callback's host wall-clock cost).  The kernel takes probes as an
optional sequence and skips all probe bookkeeping — including the
``perf_counter`` pair around each callback — when none are attached,
so profiling is strictly opt-in.

Built-in probes cover the three questions that matter when the
simulator itself is the bottleneck (the 10-cube sweeps fire millions of
events): where does host time go per callback type
(:class:`CallbackTimeProbe`), how deep does the heap get
(:class:`HeapDepthProbe`), and how much scheduling work is wasted on
events that never fire (:class:`CancellationProbe`).

Probes are deliberately decoupled from the engine: this module imports
nothing from :mod:`repro.simulator`, and the engine refers to probes
only through duck typing, so ``repro.obs`` stays dependency-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.simulator.engine import Event, Simulator

__all__ = [
    "CallbackTimeProbe",
    "CancellationProbe",
    "HeapDepthProbe",
    "Probe",
    "default_probes",
    "probe_summaries",
]


@runtime_checkable
class Probe(Protocol):
    """What the event kernel calls into when profiling is enabled."""

    def on_schedule(self, sim: "Simulator", event: "Event") -> None:
        """``event`` was just pushed onto the heap."""

    def on_fire(self, sim: "Simulator", event: "Event", wall_seconds: float) -> None:
        """``event``'s callback just ran, costing ``wall_seconds`` of host time."""

    def summary(self) -> dict[str, object]:
        """Accumulated results as a JSON-safe dict."""


def _callback_label(event: "Event") -> str:
    cb = event.callback
    return getattr(cb, "__qualname__", None) or getattr(cb, "__name__", None) or repr(cb)


class CallbackTimeProbe:
    """Host wall time and fire count per callback type.

    The per-callback breakdown says which layer of the model dominates a
    slow sweep -- header progression (``_advance``), delivery
    fan-out (``_deliver``), or CPU-side send issue.
    """

    name = "callback_time"

    def __init__(self) -> None:
        self._seconds: dict[str, float] = {}
        self._fires: dict[str, int] = {}

    def on_schedule(self, sim: "Simulator", event: "Event") -> None:
        pass

    def on_fire(self, sim: "Simulator", event: "Event", wall_seconds: float) -> None:
        label = _callback_label(event)
        self._seconds[label] = self._seconds.get(label, 0.0) + wall_seconds
        self._fires[label] = self._fires.get(label, 0) + 1

    def summary(self) -> dict[str, object]:
        by_callback = {
            label: {"fires": self._fires[label], "wall_seconds": self._seconds[label]}
            for label in sorted(self._seconds, key=self._seconds.get, reverse=True)
        }
        return {
            "total_wall_seconds": sum(self._seconds.values()),
            "by_callback": by_callback,
        }


class HeapDepthProbe:
    """Peak (and final) pending-event count.

    Peak heap depth bounds the kernel's memory footprint and the
    ``log n`` factor in every push/pop; a model change that balloons it
    shows up here before it shows up as wall time.
    """

    name = "heap_depth"

    def __init__(self) -> None:
        self.peak = 0
        self.scheduled = 0

    def on_schedule(self, sim: "Simulator", event: "Event") -> None:
        self.scheduled += 1
        depth = sum(map(len, sim._due.values()))  # pending events
        if depth > self.peak:
            self.peak = depth

    def on_fire(self, sim: "Simulator", event: "Event", wall_seconds: float) -> None:
        pass

    def summary(self) -> dict[str, object]:
        return {"peak": self.peak, "scheduled": self.scheduled}


class CancellationProbe:
    """Fraction of scheduled events that were cancelled instead of fired.

    The kernel cancels lazily (tombstones stay in the heap), so a high
    cancellation rate means the heap is doing real work on dead events;
    models that re-schedule speculatively should watch this.
    """

    name = "cancellation"

    def __init__(self) -> None:
        self.scheduled = 0
        self.fired = 0

    def on_schedule(self, sim: "Simulator", event: "Event") -> None:
        self.scheduled += 1

    def on_fire(self, sim: "Simulator", event: "Event", wall_seconds: float) -> None:
        self.fired += 1

    def summary(self) -> dict[str, object]:
        cancelled = self.scheduled - self.fired
        return {
            "scheduled": self.scheduled,
            "fired": self.fired,
            "cancelled": cancelled,
            "cancellation_rate": cancelled / self.scheduled if self.scheduled else 0.0,
        }


def default_probes() -> list[Probe]:
    """A fresh instance of every built-in probe."""
    return [CallbackTimeProbe(), HeapDepthProbe(), CancellationProbe()]


def probe_summaries(probes) -> dict[str, dict[str, object]]:
    """``{probe.name: probe.summary()}`` for a probe collection."""
    return {p.name: p.summary() for p in probes}
