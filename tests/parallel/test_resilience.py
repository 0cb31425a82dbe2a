"""Unit tests for the resilience layer: retry/watchdog policies, the
sweep journal, and cache integrity auditing.

Chaos-style integration tests (killed workers, injected hangs, corrupt
files mid-sweep) live in test_chaos.py; this file covers the building
blocks in isolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import pytest

from repro.obs.sink import capture, emit_event
from repro.parallel.cache import (
    ScheduleCache,
    cache_key,
    gc_cache_dir,
    verify_cache_dir,
)
from repro.parallel.journal import (
    JOURNAL_SCHEMA,
    SweepJournal,
    derive_run_id,
    load_journal,
    point_fingerprint,
)
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


class TestDeriveRunId:
    def test_content_addressed(self):
        a = derive_run_id(["fig11"], True, 1)
        assert a == derive_run_id(["fig11"], True, 1)
        assert a != derive_run_id(["fig11"], False, 1)
        assert a != derive_run_id(["fig12"], True, 1)
        assert len(a) == 12


class TestSweepJournal:
    def test_append_lookup_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with SweepJournal(path, run_id="abc") as journal:
            fp = point_fingerprint(_point, 3)
            assert SweepJournal.is_miss(journal.lookup(fp))
            assert journal.append(fp, {"v": 9}) is True
            assert journal.lookup(fp) == {"v": 9}
            assert len(journal) == 1

    def test_resume_serves_prior_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        fp = point_fingerprint(_point, 5)
        with SweepJournal(path, run_id="abc", meta={"ids": ["fig11"]}) as journal:
            journal.append(fp, [25, 2.5])
        with SweepJournal(path, resume=True) as resumed:
            assert resumed.run_id == "abc"
            assert resumed.resumed_records == 1
            assert resumed.lookup(fp) == [25, 2.5]

    def test_fresh_open_truncates(self, tmp_path):
        path = tmp_path / "run.jsonl"
        fp = point_fingerprint(_point, 5)
        with SweepJournal(path, run_id="old") as journal:
            journal.append(fp, 25)
        with SweepJournal(path, run_id="new") as fresh:
            assert SweepJournal.is_miss(fresh.lookup(fp))
        assert load_journal(path).run_id == "new"

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

    def test_torn_tail_is_skipped_on_load(self, tmp_path):
        path = tmp_path / "j.jsonl"
        fps = [point_fingerprint(_point, x) for x in range(3)]
        with SweepJournal(path, run_id="r") as journal:
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
        with SweepJournal(path, run_id="r") as journal:
            journal.append(fp, 4)
        lines = path.read_text().splitlines()
        payload = json.loads(lines[1])
        payload["result"] = 5  # tampered result, stale checksum
        lines[1] = json.dumps(payload)
        path.write_text("\n".join(lines) + "\n")
        load = load_journal(path)
        assert load.records == 0
        assert load.corrupt == 1

    def test_stale_schema_is_skipped_on_load(self, tmp_path):
        path = tmp_path / "j.jsonl"
        fp = point_fingerprint(_point, 2)
        with SweepJournal(path, run_id="r") as journal:
            journal.append(fp, 4)
        text = path.read_text().replace(
            f'"schema":{JOURNAL_SCHEMA}', f'"schema":{JOURNAL_SCHEMA + 1}'
        )
        path.write_text(text)
        load = load_journal(path)
        assert load.records == 0
        assert load.corrupt == 2  # header + record

    def test_missing_file_loads_empty(self, tmp_path):
        load = load_journal(tmp_path / "absent.jsonl")
        assert load.records == 0 and not load.results


class TestCacheIntegrity:
    def _seed_cache(self, tmp_path, n: int = 3) -> ScheduleCache:
        cache = ScheduleCache(tmp_path)
        for x in range(n):
            cache.put(cache_key("t", x=x), {"v": x})
        return cache

    def test_corrupt_entry_quarantined_on_read(self, tmp_path):
        self._seed_cache(tmp_path)
        key = cache_key("t", x=1)
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text("{torn", encoding="utf-8")
        reader = ScheduleCache(tmp_path)
        assert reader.get(key) is None  # a miss, not a crash
        assert reader.quarantined == 1
        assert not path.exists()
        assert list((tmp_path / "_quarantine").glob("corrupt-*"))
        # the caller recomputes and the cache heals
        reader.put(key, {"v": 1})
        assert ScheduleCache(tmp_path).get(key) == {"v": 1}

    def test_checksum_mismatch_quarantined_on_read(self, tmp_path):
        self._seed_cache(tmp_path)
        key = cache_key("t", x=2)
        path = tmp_path / key[:2] / f"{key}.json"
        envelope = json.loads(path.read_text())
        envelope["value"] = {"v": 999}  # tampered, checksum now stale
        path.write_text(json.dumps(envelope))
        reader = ScheduleCache(tmp_path)
        assert reader.get(key) is None
        assert reader.quarantined == 1

    def test_verify_clean_directory(self, tmp_path):
        self._seed_cache(tmp_path)
        audit = verify_cache_dir(tmp_path)
        assert audit.ok == 3
        assert audit.clean
        assert audit.damaged_total == 0

    def test_verify_finds_each_damage_class(self, tmp_path):
        self._seed_cache(tmp_path)
        keys = [cache_key("t", x=x) for x in range(3)]
        paths = [tmp_path / k[:2] / f"{k}.json" for k in keys]
        paths[0].write_text("{torn")
        env = json.loads(paths[1].read_text())
        env["schema"] = 999
        paths[1].write_text(json.dumps(env))
        # entry filed under the wrong key (e.g. a botched manual copy)
        wrong = tmp_path / keys[2][:2] / ("0" * 64 + ".json")
        wrong.write_text(paths[2].read_text())
        audit = verify_cache_dir(tmp_path)
        assert audit.ok == 1  # only the untouched copy of key 2
        assert set(audit.damaged) == {"corrupt", "stale-schema", "key-mismatch"}

    def test_verify_repair_then_gc(self, tmp_path):
        self._seed_cache(tmp_path)
        key = cache_key("t", x=0)
        (tmp_path / key[:2] / f"{key}.json").write_text("{torn")
        (tmp_path / "stray.tmp").write_text("partial write")
        audit = verify_cache_dir(tmp_path, repair=True)
        assert audit.repaired == 1
        assert audit.stray_tmp == 1
        # repaired damage is contained, not gone: verify reports it
        # pending gc (but no longer as damage)
        after = verify_cache_dir(tmp_path)
        assert after.clean and after.quarantined_pending == 1
        removed = gc_cache_dir(tmp_path)
        assert removed["quarantined"] == 1
        assert removed["tmp"] == 1
        assert verify_cache_dir(tmp_path).clean

    def test_verify_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            verify_cache_dir(tmp_path / "absent")
