"""Self-tests for the benchmark's own arithmetic.

Run from the repository root with ``python -m pytest perfbench``.
They need no server and no sweep.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

# perfbench.service imports the program, as run.py does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench import hostref, service, stats  # noqa: E402
from perfbench.loadgen import Samples  # noqa: E402


class TestPercentile:
    def test_p99_of_1000_leaves_ten_beyond(self):
        samples = list(range(1, 1001))
        random.Random(0).shuffle(samples)
        assert stats.percentile(samples, 99) == 990
        assert sum(1 for s in samples if s > 990) == 10

    def test_p99_refuses_fewer_than_ten_beyond(self):
        with pytest.raises(ValueError, match="need 10"):
            stats.percentile(list(range(999)), 99)

    def test_p50_is_nearest_rank(self):
        assert stats.percentile(list(range(1, 101)), 50) == 50

    def test_windowed_p99_is_the_median_window(self):
        # three windows of 1000; one has a burst of 40 slow requests
        quiet = [1.0] * 985 + [5.0] * 15
        burst = [1.0] * 960 + [500.0] * 40
        assert stats.windowed_p99(quiet + burst + quiet, 1000) == 5.0

    def test_windowed_p99_folds_a_short_tail_into_the_last_window(self):
        assert stats.windowed_p99([1.0] * 1500 + [9.0] * 20, 1000) == 9.0


def _rung(rate, p99_ms, failed=0, arrival_s=1.0, drain_s=1.0):
    return {"rate": rate, "p99_ms": p99_ms, "failed": failed,
            "arrival_s": arrival_s, "drain_s": drain_s}


class TestMaxRps:
    LIMIT, KEEP_UP = 20.0, 0.95

    def choose(self, rungs):
        return stats.choose_max_rps(rungs, self.LIMIT, self.KEEP_UP)

    def test_highest_passing_rung(self):
        rungs = [_rung(800, 3), _rung(1000, 4), _rung(1100, 30), _rung(1210, 90)]
        assert self.choose(rungs) == 1000

    def test_one_noisy_rung_below_capacity_is_skipped(self):
        rungs = [_rung(800, 3), _rung(1000, 25), _rung(1100, 4), _rung(1210, 90), _rung(1331, 95)]
        assert self.choose(rungs) == 1100

    def test_nothing_counts_after_two_misses_in_a_row(self):
        rungs = [_rung(800, 3), _rung(1000, 25), _rung(1100, 30), _rung(1210, 4)]
        assert self.choose(rungs) == 800

    def test_growing_backlog_fails_a_rung_with_a_good_p99(self):
        rungs = [_rung(800, 3), _rung(1000, 4, drain_s=1.2), _rung(1100, 5, drain_s=1.3)]
        assert self.choose(rungs) == 800

    def test_a_refused_request_fails_its_rung(self):
        assert self.choose([_rung(800, 3), _rung(1000, 3, failed=1), _rung(1100, 99)]) == 800

    def test_no_passing_rung_gives_zero(self):
        assert self.choose([_rung(800, 30), _rung(1000, 40)]) == 0.0

    def test_ladder_done_after_two_misses(self):
        assert not stats.ladder_done([_rung(800, 3), _rung(1000, 30)], self.LIMIT, self.KEEP_UP)
        assert stats.ladder_done([_rung(1000, 30), _rung(1100, 30)], self.LIMIT, self.KEEP_UP)


def _span(span_id, start, end, parent=None, name="s"):
    return {"span_id": span_id, "parent_id": parent, "name": name,
            "start_us": start, "end_us": end}


class TestSelfTime:
    def test_span_minus_children(self):
        spans = [_span("a", 0, 100), _span("b", 10, 30, "a"), _span("c", 50, 60, "a")]
        assert stats.self_times(spans) == {"a": 70, "b": 20, "c": 10}

    def test_overlapping_children_count_once(self):
        # two workers' chunks replayed under one dispatch span
        spans = [_span("d", 0, 100), _span("w1", 0, 80, "d"), _span("w2", 20, 90, "d")]
        assert stats.self_times(spans)["d"] == 10

    def test_children_are_clipped_to_the_parent(self):
        spans = [_span("p", 10, 20), _span("c", 0, 15, "p")]
        assert stats.self_times(spans)["p"] == 5

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [_span("a", 0, 100), _span("b", 0, 50, "a"), _span("c", 0, 40, "b")]
        assert stats.self_times(spans) == {"a": 50, "b": 10, "c": 40}

    def test_rollup_sums_self_time_by_name(self):
        spans = [
            _span("a", 0, 100, name="simulate"),
            _span("b", 10, 30, "a", name="verify.delivery"),
            _span("c", 200, 250, name="simulate"),
        ]
        agg = stats.rollup(spans)
        assert agg["simulate"] == {"count": 2, "self_us": 130, "total_us": 150}

    def test_open_spans_are_ignored(self):
        spans = [_span("a", 0, 100), {**_span("b", 10, 20, "a"), "end_us": None}]
        assert stats.self_times(spans) == {"a": 100}


class TestFailRatio:
    def test_refused_and_lost_requests_count_as_failed(self):
        # 429 and 503 are refusals; None is a request with no response
        attempted, failed = stats.attempted_failed([200, 429, 200, 503, None, 200])
        assert (attempted, failed) == (6, 3)
        assert stats.fail_ratio(attempted, failed) == 0.5

    def test_nothing_attempted_is_an_error(self):
        with pytest.raises(ValueError):
            stats.fail_ratio(0, 0)


def _closed_samples(statuses, latency_s=1e-3):
    """A closed loop's raw samples: request i sent at i ms and answered
    ``latency_s`` later; a ``None`` status is a transport error."""
    s = Samples.empty(len(statuses))
    for i, status in enumerate(statuses):
        s.sent[i] = i * 1e-3
        if status is None:
            s.errors.append("/v1/verify: ConnectionError: server closed the connection")
            continue
        s.status[i], s.body[i], s.done[i] = status, b"{}", s.sent[i] + latency_s
    return s


class TestFailedRequests:
    def test_one_failed_status_fails_the_run(self):
        # a fast 500 must neither pass nor pull the latencies down
        s = _closed_samples([200] * 1000 + [500])
        s.done[1000] = s.sent[1000] + 1e-5
        problems = []
        _, ok, lat, rps = service.closed_summary("timed", [s], problems)
        assert len(ok) == 1000 and min(lat) == pytest.approx(1.0)
        assert rps == pytest.approx(1000 / 1.0)
        assert len(problems) == 1 and "1 of 1001" in problems[0] and "500" in problems[0]
        attempted, failed = stats.attempted_failed(s.status)
        assert not service.Outcome({}, {}, attempted, failed, problems).correct

    def test_a_transport_error_fails_the_run(self):
        problems = []
        service.closed_summary("timed", [_closed_samples([200] * 1000 + [None])], problems)
        assert len(problems) == 1 and "ConnectionError" in problems[0]

    def test_a_failed_count_alone_makes_the_run_incorrect(self):
        assert not service.Outcome({}, {}, attempted=10, failed=1).correct
        assert service.Outcome({}, {}, attempted=10, failed=0).correct

    def test_too_few_answered_for_the_percentiles_cannot_be_measured(self):
        with pytest.raises(service.RunFailure):
            service.closed_summary("timed", [_closed_samples([200] * 999 + [504])], [])


class TestParts:
    def test_rate_counts_only_the_time_the_parts_were_busy(self):
        # two parts of 600 requests, 0.6 s busy each, 5 s apart (a
        # reference block ran in between): 1200 in 1.2 s, not in 6.2 s
        first, second = _closed_samples([200] * 600), _closed_samples([200] * 600)
        for i in range(600):
            second.sent[i] += 5.6
            second.done[i] += 5.6
        problems = []
        samples, ok, lat, rps = service.closed_summary("timed", [first, second], problems)
        assert not problems and ok == list(range(1200))
        assert samples.sent[600] == pytest.approx(5.6)
        assert rps == pytest.approx(1200 / 1.2)

    def test_a_failed_request_in_a_later_part_keeps_its_index(self):
        problems = []
        samples, ok, _, _ = service.closed_summary(
            "timed", [_closed_samples([200] * 600), _closed_samples([200] * 599 + [503])],
            problems)
        assert 1199 not in ok and samples.status[1199] == 503
        assert len(problems) == 1 and "1 of 1200" in problems[0]


class TestHostRef:
    def test_each_stretch_takes_the_blocks_on_either_side(self):
        blocks = [[100.0, 100.0], [200.0, 200.0], [130.0, 170.0]]
        assert hostref.stretch_refs(blocks) == [150.0, 175.0]

    def test_latencies_and_busy_time_in_their_own_parts_reference(self):
        # part 1: 600 requests of 1 ms, 0.6 s busy, blocks of 1 ms around
        # it; part 2: the same on a host at half speed, so every time
        # doubles, and so does its reference
        fast, slow = _closed_samples([200] * 600), _closed_samples([200] * 600, 2e-3)
        for i in range(600):
            slow.sent[i] *= 2
            slow.done[i] = slow.sent[i] + 2e-3
        p50_ref, throughput_ref = service.ref_summary(
            [fast, slow], [[1.0, 1.0], [1.0, 1.0], [3.0, 3.0]])
        assert p50_ref == pytest.approx(1.0)
        assert throughput_ref == pytest.approx(1200 / (600 + 1200 / 2.0))

    def test_a_failed_request_counts_in_no_ratio(self):
        part = _closed_samples([200] * 599 + [500])
        part.done[599] = part.sent[599] + 1.0
        p50_ref, throughput_ref = service.ref_summary([part], [[1.0], [1.0]])
        assert p50_ref == pytest.approx(1.0)
        assert throughput_ref == pytest.approx(599 / 599.0)
