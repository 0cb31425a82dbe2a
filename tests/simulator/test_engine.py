"""Tests for the discrete-event kernel."""

from __future__ import annotations

import heapq

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.obs.probes import HeapDepthProbe
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


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        log = []
        ev = sim.schedule(1.0, log.append, "x")
        ev.cancel()
        sim.run()
        assert log == []

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        ev.cancel()
        assert sim.peek() == 2.0


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

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(1.0, loop)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 3


class _HeapQueue:
    """Reference order: every pending event in one heap of ``(time, seq)``
    entries, cancelled ones skipped lazily, the clock set on firing."""

    def __init__(self) -> None:
        self.now, self.heap, self.seq, self.events_processed = 0.0, [], 0, 0

    def schedule(self, delay, callback, *args):
        cancelled = [False]
        heapq.heappush(self.heap, (self.now + delay, self.seq, callback, args, cancelled))
        self.seq += 1
        return cancelled

    def run(self, until=None):
        while self.heap:
            time, _, callback, args, cancelled = self.heap[0]
            if cancelled[0]:
                heapq.heappop(self.heap)
                continue
            if until is not None and time > until:
                break
            heapq.heappop(self.heap)
            self.now = time
            self.events_processed += 1
            callback(*args)
        if until is not None and until > self.now:
            self.now = until


DELAYS = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.5])


class TestOrderMatchesOneHeap:
    """Events fire in (time, seq) order however they bunch on an instant,
    are posted while their instant runs, or are cancelled."""

    @settings(max_examples=150)
    @given(
        roots=st.lists(DELAYS, min_size=1, max_size=4),
        plan=st.lists(
            st.tuples(st.lists(DELAYS, max_size=3), st.none() | st.integers(0, 50)),
            min_size=1,
            max_size=8,
        ),
        mode=st.sampled_from(["run", "until", "step", "probe"]),
        horizon=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
    )
    def test_same_firing_order_clock_and_count(self, roots, plan, mode, horizon):
        def drive(queue, cancel):
            log, handles = [], []

            def fire(i):
                log.append((i, queue.now))
                delays, victim = plan[i % len(plan)]
                for d in delays:
                    if len(handles) < 120:
                        handles.append(queue.schedule(d, fire, len(handles)))
                if victim is not None:
                    cancel(handles[victim % len(handles)])

            for d in roots:
                handles.append(queue.schedule(d, fire, len(handles)))
            if mode == "until":
                queue.run(until=horizon)
                log.append(("horizon", queue.now))
            if mode == "step" and isinstance(queue, Simulator):
                while queue.step():
                    pass
            else:
                queue.run()
            return log, queue.now, queue.events_processed

        want = drive(_HeapQueue(), lambda h: h.__setitem__(0, True))
        sim = Simulator(probes=[HeapDepthProbe()] if mode == "probe" else None)
        assert drive(sim, lambda ev: ev.cancel()) == want
