"""Tests for the discrete-event kernel."""

from __future__ import annotations

import heapq
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.simulator.engine import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, log.append, "c")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(2.0, log.append, "b")
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_fifo_tie_break(self):
        """Simultaneous events fire in scheduling order (determinism)."""
        sim = Simulator()
        log = []
        for tag in range(5):
            sim.schedule(1.0, log.append, tag)
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.1, lambda: None)
        # NaN has no place in the time order: it fails every comparison
        for schedule in (Simulator().schedule, Simulator().schedule_at):
            with pytest.raises(ValueError):
                schedule(math.nan, lambda: None)

    def test_schedule_at(self):
        sim = Simulator()
        log = []
        sim.schedule_at(4.5, lambda: log.append(sim.now))
        sim.run()
        assert log == [4.5]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(2.0, second)

        def second():
            log.append(("second", sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 3.0)]

    def test_zero_delay_fires_after_current(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: (log.append("a"), sim.schedule(0.0, log.append, "b")))
        sim.schedule(1.0, log.append, "c")
        sim.run()
        assert log[0] == "a"
        assert set(log) == {"a", "b", "c"}


class TestRunLimits:
    def test_until(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "a")
        sim.schedule(5.0, log.append, "b")
        sim.run(until=3.0)
        assert log == ["a"]
        assert sim.now == 3.0  # clock advanced to the horizon
        sim.run()
        assert log == ["a", "b"]

    def test_nan_horizon_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.run(until=math.nan)
        assert sim.events_processed == 0

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(1.0, loop)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 3


class _HeapQueue:
    """Reference order: every pending event in one heap of ``(time, seq)``
    entries, the clock set on firing."""

    def __init__(self) -> None:
        self.now, self.heap, self.seq, self.events_processed = 0.0, [], 0, 0

    def schedule(self, delay, callback, *args):
        heapq.heappush(self.heap, (self.now + delay, self.seq, callback, args))
        self.seq += 1

    def run(self, until=None, max_events=None):
        while self.heap:
            time, _, callback, args = self.heap[0]
            if until is not None and time > until:
                break
            if max_events is not None and self.events_processed >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
            heapq.heappop(self.heap)
            self.now = time
            self.events_processed += 1
            callback(*args)
        if until is not None and until > self.now:
            self.now = until


DELAYS = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.5])


class TestOrderMatchesOneHeap:
    """Events fire in (time, seq) order however they bunch on an instant
    or are posted while their instant runs; a time horizon and an event
    limit stop both queues at the same event."""

    @settings(max_examples=150)
    @given(
        roots=st.lists(DELAYS, min_size=1, max_size=4),
        plan=st.lists(st.lists(DELAYS, max_size=3), min_size=1, max_size=8),
        mode=st.sampled_from(["run", "until", "max_events"]),
        horizon=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
        limit=st.integers(0, 40),
    )
    def test_same_firing_order_clock_and_count(self, roots, plan, mode, horizon, limit):
        def drive(queue):
            log, posted = [], [0]

            def fire(i):
                log.append((i, queue.now))
                for d in plan[i % len(plan)]:
                    if posted[0] < 120:
                        queue.schedule(d, fire, posted[0])
                        posted[0] += 1

            for d in roots:
                queue.schedule(d, fire, posted[0])
                posted[0] += 1
            if mode == "until":
                queue.run(until=horizon)
                log.append(("horizon", queue.now))
            if mode == "max_events":
                try:
                    queue.run(max_events=limit)
                except RuntimeError:
                    log.append(("limit", queue.now, queue.events_processed))
            else:
                queue.run()
            return log, queue.now, queue.events_processed

        assert drive(Simulator()) == drive(_HeapQueue())
