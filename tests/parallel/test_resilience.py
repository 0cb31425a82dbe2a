"""Unit tests for the resilience layer: retry/watchdog policies, the
event API, and the sweep point log.

Chaos-style integration tests (killed workers, injected hangs, corrupt
files mid-sweep) live in test_chaos.py; this file covers the building
blocks in isolation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from enum import Enum

import pytest

from repro.analysis.delay import _delay_point, _DelayPoint
from repro.multicast.ports import ALL_PORT
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import capture, emit_event
from repro.obs.trace_spans import trace_capture
from repro.parallel import journal as journal_mod
from repro.parallel.journal import (
    JOURNAL_SCHEMA,
    POINT_LOG,
    SweepJournal,
    load_journal,
    point_fingerprint,
)
from repro.simulator.params import NCUBE2
from repro.parallel.resilience import PointTracker, RetryPolicy, WatchdogConfig


def _point(x: int) -> int:
    return x * x


class TestRetryPolicy:
    def test_backoff_doubles_then_caps(self):
        policy = RetryPolicy(max_retries=5, backoff_base_s=0.1, backoff_cap_s=0.35)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.35)  # capped, not 0.4
        assert policy.backoff(10) == pytest.approx(0.35)

    def test_matches_faults_sim_backoff_shape(self):
        """Same curve as the simulated source-retry backoff, scaled to
        seconds: min(base * 2**(k-1), cap)."""
        policy = RetryPolicy(backoff_base_s=0.05, backoff_cap_s=2.0)
        for attempt in range(1, 8):
            expected = min(0.05 * 2 ** (attempt - 1), 2.0)
            assert policy.backoff(attempt) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=float("nan"))
        with pytest.raises(ValueError):
            RetryPolicy(backoff_cap_s=float("nan"))
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0)


class TestWatchdogConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WatchdogConfig(soft_timeout_s=10.0, hard_timeout_s=5.0)
        with pytest.raises(ValueError, match="soft timeout must be > 0"):
            WatchdogConfig(soft_timeout_s=-3.0, hard_timeout_s=-1.0)
        with pytest.raises(ValueError, match="soft timeout must be > 0"):
            WatchdogConfig(soft_timeout_s=0.0)
        with pytest.raises(ValueError, match="hard timeout must be > 0"):
            WatchdogConfig(soft_timeout_s=0.5, hard_timeout_s=0.0)
        with pytest.raises(ValueError):
            WatchdogConfig(poll_s=0.0)
        # NaN fails every comparison: a NaN timeout would never expire
        nan = float("nan")
        with pytest.raises(ValueError, match="soft timeout must be > 0"):
            WatchdogConfig(soft_timeout_s=nan)
        with pytest.raises(ValueError, match="hard timeout must be > 0"):
            WatchdogConfig(hard_timeout_s=nan)
        with pytest.raises(ValueError, match="poll_s must be > 0"):
            WatchdogConfig(poll_s=nan)
        with pytest.raises(ValueError):
            WatchdogConfig(quarantine_after=0)
        with pytest.raises(ValueError):
            WatchdogConfig(pool_loss_limit=0)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG_SOFT_S", "1.5")
        monkeypatch.setenv("REPRO_WATCHDOG_HARD_S", "9.0")
        monkeypatch.setenv("REPRO_WATCHDOG_RETRIES", "4")
        cfg = WatchdogConfig.from_env()
        assert cfg.soft_timeout_s == 1.5
        assert cfg.hard_timeout_s == 9.0
        assert cfg.retry.max_retries == 4
        for name, bad in (
            ("REPRO_WATCHDOG_SOFT_S", "abc"),
            ("REPRO_WATCHDOG_HARD_S", "1e"),
            ("REPRO_WATCHDOG_RETRIES", "2.5"),
        ):
            monkeypatch.setenv(name, bad)
            with pytest.raises(ValueError, match=name):
                WatchdogConfig.from_env()
            monkeypatch.delenv(name)
        # "nan" parses as a float, and max(nan, soft) is nan; every
        # value that parses but is out of range names its variable too
        for name, bad, rule in (
            ("REPRO_WATCHDOG_SOFT_S", "nan", "soft timeout must be > 0"),
            ("REPRO_WATCHDOG_HARD_S", "nan", "hard timeout must be > 0"),
            ("REPRO_WATCHDOG_SOFT_S", "-1", "soft timeout must be > 0"),
            ("REPRO_WATCHDOG_HARD_S", "0", "hard timeout must be > 0"),
            ("REPRO_WATCHDOG_RETRIES", "-1", "retries must be >= 0"),
        ):
            monkeypatch.setenv(name, bad)
            with pytest.raises(ValueError, match=f"^{name}='{bad}': {rule}$"):
                WatchdogConfig.from_env()
            monkeypatch.delenv(name)

    def test_from_env_clamps_hard_to_soft(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG_SOFT_S", "60")
        monkeypatch.setenv("REPRO_WATCHDOG_HARD_S", "10")
        cfg = WatchdogConfig.from_env()
        assert cfg.hard_timeout_s == 60.0


class TestPointTracker:
    def test_quarantines_after_threshold(self):
        tracker = PointTracker(quarantine_after=3)
        assert tracker.record_failure(7) is False
        assert tracker.record_failure(7) is False
        assert tracker.record_failure(7) is True
        assert tracker.is_quarantined(7)
        assert not tracker.is_quarantined(8)
        assert tracker.total_failures == 3

    def test_points_are_tracked_independently(self):
        tracker = PointTracker(quarantine_after=2)
        tracker.record_failure(1)
        tracker.record_failure(2)
        assert not tracker.quarantined
        assert tracker.record_failure(1) is True
        assert tracker.quarantined == {1}


class TestResilienceEvents:
    def test_events_reach_the_active_sink(self):
        with capture() as sink:
            emit_event("point-quarantined", kind="resilience-event", point=3, failures=2)
        (record,) = sink.records
        assert record.kind == "resilience-event"
        assert record.extra["event"] == "point-quarantined"
        assert record.extra["point"] == 3

    def test_no_sink_is_a_noop(self):
        emit_event("hung-pool-killed", kind="resilience-event")  # must not raise

    def test_counter_is_counted_once_beside_record_and_instant(self):
        registry = MetricsRegistry()
        with capture() as sink, trace_capture() as tracer:
            emit_event(
                "pool-degraded", kind="resilience-event",
                counter="sim.resilience.degraded_points", amount=3.0,
                metrics=registry, points=3,
            )
        assert registry.counter("sim.resilience.degraded_points").value == 3.0
        (record,) = sink.records
        assert record.extra == {"event": "pool-degraded", "points": 3}
        (instant,) = [s for s in tracer.spans if s.name == "resilience.pool-degraded"]
        assert instant.attrs == {"points": 3}
        # without a sink or a tracer the counter still counts
        emit_event(
            "pool-degraded", kind="resilience-event",
            counter="sim.resilience.degraded_points", metrics=registry,
        )
        assert registry.counter("sim.resilience.degraded_points").value == 4.0


class _Color(Enum):
    RED = 1
    BLUE = 2


@dataclass(frozen=True)
class _Spec:
    m: int
    sets: tuple[int, ...]


class TestPointFingerprint:
    def test_deterministic_and_spec_sensitive(self):
        fp = point_fingerprint(_point, _Spec(3, (1, 2)))
        assert fp == point_fingerprint(_point, _Spec(3, (1, 2)))
        assert fp != point_fingerprint(_point, _Spec(4, (1, 2)))

    def test_function_identity_matters(self):
        spec = _Spec(3, (1, 2))
        assert point_fingerprint(_point, spec) != point_fingerprint(len, spec)

    def test_tuple_and_list_canonicalize_identically(self):
        """JSON round-trips tuples as lists; the fingerprint must not
        distinguish them or resumed points would never match."""
        assert point_fingerprint(_point, (1, 2, [3])) == point_fingerprint(
            _point, [1, 2, (3,)]
        )

    def test_enums_dicts_and_sets_are_canonical(self):
        a = point_fingerprint(_point, {"c": _Color.RED, "s": {3, 1, 2}})
        b = point_fingerprint(_point, {"s": frozenset({1, 2, 3}), "c": _Color.RED})
        assert a == b
        assert a != point_fingerprint(_point, {"c": _Color.BLUE, "s": {1, 2, 3}})

    def test_unsupported_component_is_a_clear_error(self):
        with pytest.raises(TypeError, match="cannot fingerprint spec component"):
            point_fingerprint(_point, object())

    def test_cache_schema_namespaces_the_fingerprint(self, monkeypatch):
        """A stored point must not outlive a change in what it means."""
        before = point_fingerprint(_point, 3)
        monkeypatch.setattr("repro.parallel.cache.CACHE_SCHEMA", 999)
        assert point_fingerprint(_point, 3) != before

    def test_fingerprint_and_log_line_encodings_are_pinned(self, tmp_path):
        """Every point log already written is addressed by these bytes:
        an encoding change would orphan them all, so it must come with
        a schema bump, never by accident."""
        spec = _DelayPoint(3, 2, 2, 1993, 0, ("ucube", "wsort"), 4096, NCUBE2, ALL_PORT)
        fp = point_fingerprint(_delay_point, spec)
        assert fp == "593f79b67eb4e5c4ceaca48b0490c047c4ccb3879b6987834cf7803e05827b6d"
        result = {
            "ucube": (3009.2999999999997, 4013.3999999999996, 0.0),
            "wsort": (2048.2, 2090.2, 0.0),
        }
        with SweepJournal(tmp_path / POINT_LOG) as journal:
            journal.append(fp, result)
        assert (tmp_path / POINT_LOG).read_bytes() == (
            b'{"schema":1,"fp":"593f79b67eb4e5c4ceaca48b0490c047c4ccb3879b6987834cf7803e05827b6d",'
            b'"result":{"ucube":[3009.2999999999997,4013.3999999999996,0.0],'
            b'"wsort":[2048.2,2090.2,0.0]},"sum":"4a6ef06b60990d93"}\n'
        )


class TestSweepJournal:
    def test_append_lookup_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with SweepJournal(path) as journal:
            fp = point_fingerprint(_point, 3)
            assert SweepJournal.is_miss(journal.lookup(fp))
            assert journal.append(fp, {"v": 9}) is True
            assert journal.lookup(fp) == {"v": 9}
            assert len(journal) == 1

    def test_resume_serves_prior_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        fp = point_fingerprint(_point, 5)
        with SweepJournal(path) as journal:
            journal.append(fp, [25, 2.5])
            assert not journal.from_log(fp)
        with SweepJournal(path) as resumed:
            assert resumed.resumed_records == 1
            assert resumed.lookup(fp) == [25, 2.5]
            assert resumed.from_log(fp)

    def test_without_a_path_points_are_remembered_not_logged(self):
        journal = SweepJournal()
        fp = point_fingerprint(_point, 4)
        assert journal.append(fp, 16) is False
        assert journal.lookup(fp) == 16 and journal.appended == 0
        journal.close()

    def test_journaled_none_is_not_a_miss(self, tmp_path):
        with SweepJournal(tmp_path / "j.jsonl") as journal:
            fp = point_fingerprint(_point, 0)
            journal.append(fp, None)
            assert journal.lookup(fp) is None
            assert not SweepJournal.is_miss(journal.lookup(fp))

    def test_unserializable_result_is_skipped_not_fatal(self, tmp_path):
        with SweepJournal(tmp_path / "j.jsonl") as journal:
            assert journal.append("fp", object()) is False
            assert journal.skipped_appends == 1
        assert load_journal(tmp_path / "j.jsonl").records == 0

    def test_a_line_is_one_os_write(self, tmp_path, monkeypatch):
        """Whole lines, so two sweeps sharing a log interleave records,
        never bytes."""
        writes: list[bytes] = []
        real_write = os.write

        def recording_write(fd, data):
            writes.append(bytes(data))
            return real_write(fd, data)

        monkeypatch.setattr(journal_mod.os, "write", recording_write)
        path = tmp_path / "j.jsonl"
        with SweepJournal(path) as journal:
            journal.append(point_fingerprint(_point, 2), {"v": [4, 0.5]})
            journal.append(point_fingerprint(_point, 3), 9)
        assert len(writes) == 2
        assert b"".join(writes) == path.read_bytes()
        assert all(w.endswith(b"\n") and w.count(b"\n") == 1 for w in writes)

    def test_torn_tail_is_skipped_on_load(self, tmp_path):
        path = tmp_path / "j.jsonl"
        fps = [point_fingerprint(_point, x) for x in range(3)]
        with SweepJournal(path) as journal:
            for x, fp in enumerate(fps):
                journal.append(fp, x * x)
        # simulate a torn final write: cut the file mid-line
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        load = load_journal(path)
        assert load.records == 2
        assert load.corrupt == 1
        assert load.results[fps[0]] == 0 and load.results[fps[1]] == 1

    def test_checksum_mismatch_is_skipped_on_load(self, tmp_path):
        path = tmp_path / "j.jsonl"
        fp = point_fingerprint(_point, 2)
        with SweepJournal(path) as journal:
            journal.append(fp, 4)
        lines = path.read_text().splitlines()
        payload = json.loads(lines[0])
        payload["result"] = 5  # tampered result, stale checksum
        lines[0] = json.dumps(payload)
        path.write_text("\n".join(lines) + "\n")
        load = load_journal(path)
        assert load.records == 0
        assert load.corrupt == 1

    def test_stale_schema_is_skipped_on_load(self, tmp_path):
        path = tmp_path / "j.jsonl"
        fp = point_fingerprint(_point, 2)
        with SweepJournal(path) as journal:
            journal.append(fp, 4)
        text = path.read_text().replace(
            f'"schema":{JOURNAL_SCHEMA}', f'"schema":{JOURNAL_SCHEMA + 1}'
        )
        path.write_text(text)
        load = load_journal(path)
        assert load.records == 0
        assert load.corrupt == 1

    def test_missing_file_loads_empty(self, tmp_path):
        load = load_journal(tmp_path / "absent.jsonl")
        assert load.records == 0 and not load.results


class TestCacheIntegrity:
    """What a sweep keeps under its cache dir is the point log: damage
    there is counted and recomputed, never served and never fatal."""

    def test_non_utf8_entry_is_corrupt_not_a_crash(self, tmp_path):
        path = tmp_path / "points.jsonl"
        fps = [point_fingerprint(_point, x) for x in range(2)]
        with SweepJournal(path) as journal:
            journal.append(fps[0], 0)
            journal.append(fps[1], 1)
        raw = path.read_bytes()
        # a garbage line, then a final record torn inside a UTF-8 sequence
        first = raw.splitlines(keepends=True)[0]
        path.write_bytes(first + b"\xff\xfe\n" + raw[-40:-3] + b"\xe2\x82")
        load = load_journal(path)
        assert load.results == {fps[0]: 0}
        assert load.corrupt == 2
        with SweepJournal(path) as reopened:
            assert SweepJournal.is_miss(reopened.lookup(fps[1]))
