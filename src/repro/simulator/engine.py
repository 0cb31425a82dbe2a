"""A minimal discrete-event simulation kernel.

The paper's MultiSim was built on the (proprietary) CSIM library; this
module provides the small slice of discrete-event machinery the network
model needs: a time-ordered event heap with deterministic FIFO
tie-breaking and cancellable events.

Determinism matters: two events scheduled for the same instant fire in
scheduling order, so simulation runs are exactly reproducible and the
unit-cost cross-validation against the abstract step scheduler is
stable.

The kernel supports optional profiling probes (duck-typed against
:class:`repro.obs.probes.Probe`): when any are attached it reports each
scheduled event and times each callback with ``perf_counter``.  With
none attached (the default) and no time horizon, :meth:`Simulator.run`
is one ``heappop`` loop -- no clock reads, no call per event but the
callback.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import inf
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - type-only, avoids an import cycle
    from repro.obs.probes import Probe

__all__ = ["Event", "Simulator"]


@dataclass(slots=True)
class Event:
    """A scheduled callback, as returned by :meth:`Simulator.schedule`.

    The heap itself stores ``(time, seq, callback, args, event)`` tuples
    so that heap maintenance compares native floats/ints -- profiling the
    10-cube sweeps showed a generated dataclass ``__lt__`` dominating
    otherwise.  Events the models post for themselves carry ``None``
    there: nobody can cancel them, so no handle is built.
    """

    time: float
    seq: int
    callback: Callable[..., None]
    args: tuple[Any, ...] = ()
    cancelled: bool = False

    def cancel(self) -> None:
        """Prevent the event from firing (it stays in the heap lazily)."""
        self.cancelled = True


class Simulator:
    """Event heap + clock.

    Usage::

        sim = Simulator()
        sim.schedule(5.0, print, "five microseconds later")
        sim.run()
    """

    def __init__(self, probes: "Iterable[Probe] | None" = None) -> None:
        self._now = 0.0
        self._heap: list[tuple] = []  # (time, seq, callback, args, Event or None)
        self._seq = 0
        self._processed = 0
        self._probes: tuple[Probe, ...] = tuple(probes) if probes else ()

    @property
    def now(self) -> float:
        """Current simulation time (microseconds by convention).

        The network and host models read ``_now`` directly on their
        per-event paths, sparing a property call per read.
        """
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (for instrumentation)."""
        return self._processed

    @property
    def probes(self) -> "tuple[Probe, ...]":
        """Attached profiling probes (empty by default)."""
        return self._probes

    def add_probe(self, probe: "Probe") -> None:
        """Attach a profiling probe (see :mod:`repro.obs.probes`)."""
        self._probes = self._probes + (probe,)

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` from now.

        Raises:
            ValueError: if ``delay`` is negative (the past is immutable).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        ev = Event(self._now + delay, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, (ev.time, ev.seq, callback, args, ev))
        if self._probes:
            for probe in self._probes:
                probe.on_schedule(self, ev)
        return ev

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``.

        The event fires at ``now + (time - now)``, exactly where
        ``schedule(time - now, ...)`` would place it.
        """
        return self.schedule(time - self._now, callback, *args)

    def _post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """:meth:`schedule` without a handle, for the network and host
        models' own events, which are never cancelled; ``delay`` is a
        non-negative cost-model sum."""
        if self._probes:
            self.schedule(delay, callback, *args)
            return
        heapq.heappush(self._heap, (self._now + delay, self._seq, callback, args, None))
        self._seq += 1

    def peek(self) -> float | None:
        """Time of the next pending event, or None if the heap is empty."""
        heap = self._heap
        while heap and heap[0][4] is not None and heap[0][4].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Fire the next event.  Returns False when nothing is pending."""
        while self._heap:
            time, seq, callback, args, ev = heapq.heappop(self._heap)
            if ev is not None and ev.cancelled:
                continue
            self._now = time
            self._processed += 1
            if self._probes:
                if ev is None:  # posted before a probe was attached
                    ev = Event(time, seq, callback, args)
                t0 = perf_counter()
                callback(*args)
                elapsed = perf_counter() - t0
                for probe in self._probes:
                    probe.on_fire(self, ev, elapsed)
            else:
                callback(*args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run until the heap drains (or a limit is hit); returns the clock.

        Args:
            until: stop before firing any event later than this time.
            max_events: safety valve against runaway models.
        """
        if self._probes or until is not None:
            return self._run_stepwise(until, max_events)
        # the common case: one pop per event, on local names
        heap = self._heap
        pop = heapq.heappop
        limit = inf if max_events is None else max_events
        fired = 0
        try:
            while heap:
                entry = pop(heap)
                time, _, callback, args, ev = entry
                if ev is not None and ev.cancelled:
                    continue
                if fired >= limit:
                    heapq.heappush(heap, entry)
                    raise RuntimeError(f"simulation exceeded {max_events} events")
                self._now = time
                fired += 1
                callback(*args)
        finally:
            self._processed += fired
        return self._now

    def _run_stepwise(self, until: float | None, max_events: int | None) -> float:
        """:meth:`run` through :meth:`peek` and :meth:`step`, which honour
        a time horizon and report to probes."""
        fired = 0
        while True:
            nxt = self.peek()
            if nxt is None or (until is not None and nxt > until):
                break
            if max_events is not None and fired >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
            self.step()
            fired += 1
        if until is not None and until > self._now:
            self._now = until
        return self._now
