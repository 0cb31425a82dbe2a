"""A minimal discrete-event simulation kernel.

The paper's MultiSim was built on the (proprietary) CSIM library; this
module provides the slice of it the network model needs: a clock and a
time-ordered queue of ``(callback, args)`` events.  Two events for the
same instant fire in posting order, so runs are exactly reproducible
and the unit-cost cross-validation against the abstract step scheduler
is stable.

Pending events wait in one FIFO bucket per distinct time under a heap
of those times, so they fire in the ``(time, seq)`` order of one heap
with no sequence number stored, and the heap compares floats once per
instant (about 3.5 events each in a 10-cube W-sort multicast), not
once per event.  :meth:`Simulator.run` is the one loop that fires them.

Drivers (traffic, multirun, faults, collectives, the flit-level
reference) post through :meth:`Simulator.schedule` and
:meth:`Simulator.schedule_at`, which validate the time.  The network
and the host model (:class:`~repro.simulator.run.Machine`) post on
their per-event paths with one append::

    sim._due[sim._now + delay].append((callback, args))

where ``delay`` is a validated :class:`~repro.simulator.params.Timings`
constant or a CPU-ready time not before ``now``.  The kernel has no
profiling hook; ``python -m cProfile`` profiles it from the outside.
"""

from __future__ import annotations

import heapq
from collections import deque
from math import inf, isnan
from typing import Any, Callable

__all__ = ["Simulator"]


class _Buckets(dict):
    """Pending ``(callback, args)`` events by time; a new time gets an
    empty bucket and joins the heap of distinct times."""

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

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[float] = []  # the distinct times with pending events
        self._due = _Buckets(self._heap)  # time -> deque of (callback, args)
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time (microseconds by convention).

        The network and the host model read ``_now`` directly on their
        per-event paths, sparing a property call per read.
        """
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (for instrumentation)."""
        return self._processed

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to fire ``delay`` from now.

        Raises:
            ValueError: if ``delay`` is negative (the past is immutable)
                or NaN (it has no place in the time order).
        """
        if not delay >= 0:  # a negated comparison, so that NaN fails it too
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._due[self._now + delay].append((callback, args))

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute time ``time``.

        The event fires at ``now + (time - now)``, exactly where
        ``schedule(time - now, ...)`` would place it.
        """
        self.schedule(time - self._now, callback, *args)

    def drop_pending(self) -> None:
        """Forget every pending event.  A driver whose run stopped at a
        deadline calls it: the events it cut off hold bound methods of
        the network and the host model, which hold this kernel, so
        keeping them would make the run a reference cycle."""
        self._heap.clear()
        self._due.clear()

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Fire events in time order until none is pending, or a limit
        is hit; returns the clock.

        Args:
            until: stop before firing any event later than this time.
                If that stops the run early, the clock ends at ``until``.
            max_events: safety valve against runaway models: a run that
                would fire more events raises ``RuntimeError``, with the
                clock at the last event fired.

        Raises:
            ValueError: if ``until`` is NaN.
        """
        if until is not None and isnan(until):
            raise ValueError("cannot run until a NaN time")
        horizon = inf if until is None else until
        limit = inf if max_events is None else max_events
        heap, due = self._heap, self._due
        fired = 0
        try:
            # drain the earliest bucket; events posted for the same
            # instant join its end
            while heap and heap[0] <= horizon:
                time = heap[0]
                bucket = due[time]
                while bucket:
                    if fired >= limit:
                        raise RuntimeError(f"simulation exceeded {max_events} events")
                    callback, args = bucket.popleft()
                    self._now = time
                    fired += 1
                    callback(*args)
                heapq.heappop(heap)
                del due[time]
        finally:
            self._processed += fired
        if until is not None and until > self._now:
            self._now = until
        return self._now
