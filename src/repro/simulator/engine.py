"""A minimal discrete-event simulation kernel.

The paper's MultiSim was built on the (proprietary) CSIM library; this
module provides the small slice of discrete-event machinery the network
model needs: a time-ordered event heap with deterministic FIFO
tie-breaking and cancellable events.

Determinism matters: two events scheduled for the same instant fire in
scheduling order, so simulation runs are exactly reproducible and the
unit-cost cross-validation against the abstract step scheduler is
stable.

Pending events wait in one FIFO bucket per distinct time under a heap
of those times, so they fire in ``(time, seq)`` order while the heap
compares floats once per instant (about 3.5 events each in a 10-cube
W-sort multicast), not once per event.

The kernel supports optional profiling probes (duck-typed against
:class:`repro.obs.probes.Probe`): when any are attached it reports each
scheduled event and times each callback with ``perf_counter``.  With
none attached (the default) and no time horizon, :meth:`Simulator.run`
is one loop over the buckets -- no clock reads, no call per event but
the callback.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from itertools import count
from math import inf
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - type-only, avoids an import cycle
    from repro.obs.probes import Probe

__all__ = ["Event", "Simulator"]


@dataclass(slots=True)
class Event:
    """A scheduled callback, as returned by :meth:`Simulator.schedule`.

    A time's bucket holds ``(seq, callback, args, event)`` tuples; the
    models' own events carry no handle (``None``): nobody cancels them.
    Without probes a model posts one with ``sim._due[now + delay].append(
    (next(sim._seq), callback, args, None))``, else via :meth:`schedule`.
    """

    time: float
    seq: int
    callback: Callable[..., None]
    args: tuple[Any, ...] = ()
    cancelled: bool = False

    def cancel(self) -> None:
        """Prevent the event from firing (it stays in the heap lazily)."""
        self.cancelled = True


class _Buckets(dict):
    """Pending events by time; a new time gets an empty bucket and joins
    the heap of distinct times."""

    def __init__(self, heap: list[float]) -> None:
        super().__init__()
        self.heap = heap

    def __missing__(self, time: float) -> deque[tuple]:
        heapq.heappush(self.heap, time)
        bucket = self[time] = deque()
        return bucket


class Simulator:
    """Event queue + clock.

    Usage::

        sim = Simulator()
        sim.schedule(5.0, print, "five microseconds later")
        sim.run()
    """

    def __init__(self, probes: "Iterable[Probe] | None" = None) -> None:
        self._now = 0.0
        self._heap: list[float] = []  # the distinct times with pending events
        self._due = _Buckets(self._heap)  # time -> (seq, callback, args, Event or None)
        self._seq = count()  # FIFO tie-break between events at one instant
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
        ev = Event(self._now + delay, next(self._seq), callback, args)
        self._due[ev.time].append((ev.seq, callback, args, ev))
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

    def peek(self) -> float | None:
        """Time of the next pending event, or None if nothing is pending."""
        heap, due = self._heap, self._due
        while heap:
            bucket = due[heap[0]]
            while bucket and bucket[0][3] is not None and bucket[0][3].cancelled:
                bucket.popleft()
            if bucket:
                return heap[0]
            del due[heapq.heappop(heap)]
        return None

    def step(self) -> bool:
        """Fire the next event.  Returns False when nothing is pending."""
        time = self.peek()
        if time is None:
            return False
        seq, callback, args, ev = self._due[time].popleft()
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

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run until nothing is pending (or a limit is hit); returns the clock.

        Args:
            until: stop before firing any event later than this time.
            max_events: safety valve against runaway models.
        """
        if self._probes or until is not None:
            return self._run_stepwise(until, max_events)
        # the common case: drain the earliest bucket, on local names;
        # events posted for the same instant join its end
        heap, due = self._heap, self._due
        limit = inf if max_events is None else max_events
        fired = 0
        try:
            while heap:
                time = heap[0]
                bucket = due[time]
                while bucket:
                    entry = bucket.popleft()
                    _, callback, args, ev = entry
                    if ev is not None and ev.cancelled:
                        continue
                    if fired >= limit:
                        bucket.appendleft(entry)
                        raise RuntimeError(f"simulation exceeded {max_events} events")
                    self._now = time
                    fired += 1
                    callback(*args)
                heapq.heappop(heap)
                del due[time]
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
