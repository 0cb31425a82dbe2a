"""Point-log self-healing: damaged content never aborts a re-run.

The log's contract (src/repro/parallel/journal.py) is that loading is
*total*: any line that cannot be proven to be an intact record is
skipped and counted, and the affected points recompute.  These tests
drive the damage classes a killed or mismatched writer produces:

- a **torn final line** -- the coordinator was SIGKILLed mid-``write``;
- **interleaved records from two sweeps** -- two sweeps sharing one
  cache dir;
- a **checksum-valid-but-stale-schema record** -- a log written by a
  newer (or older) format whose per-record checksum still verifies.
"""

from __future__ import annotations

import json

from repro.parallel.journal import (
    JOURNAL_SCHEMA,
    SweepJournal,
    _record_checksum,
    load_journal,
    point_fingerprint,
)


def _point(spec: int) -> int:
    return spec * spec


def _fps(count: int) -> list[str]:
    return [point_fingerprint(_point, x) for x in range(count)]


def _record_line(fingerprint: str, result: object, schema: int = JOURNAL_SCHEMA) -> str:
    """A raw log record line with a *valid* checksum."""
    return json.dumps(
        {
            "schema": schema,
            "fp": fingerprint,
            "result": result,
            "sum": _record_checksum(fingerprint, result),
        },
        separators=(",", ":"),
    )


class TestTornFinalLine:
    def test_torn_tail_skipped_and_resume_continues(self, tmp_path):
        path = tmp_path / "points.jsonl"
        fps = _fps(4)
        with SweepJournal(path) as journal:
            for x, fp in enumerate(fps[:3]):
                journal.append(fp, _point(x))
        # SIGKILL mid-write: the final record loses its last bytes
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])

        with SweepJournal(path) as resumed:
            assert resumed.resumed_records == 2
            assert resumed.corrupt_records == 1
            assert resumed.lookup(fps[0]) == 0
            assert resumed.lookup(fps[1]) == 1
            # the torn point recomputes and is logged again...
            assert SweepJournal.is_miss(resumed.lookup(fps[2]))
            resumed.append(fps[2], _point(2))
            resumed.append(fps[3], _point(3))

        # ...and the healed file loads fully intact
        load = load_journal(path)
        assert load.corrupt == 1  # the torn stump is still on disk
        assert load.records == 4
        assert load.results[fps[2]] == 4 and load.results[fps[3]] == 9


class TestInterleavedRuns:
    def test_anonymous_load_keeps_single_writer_behaviour(self, tmp_path):
        """Two sweeps sharing one cache dir append whole lines to one
        log; a load adopts every intact record, whichever sweep wrote
        it, exactly as it does for a single writer: a fingerprint is a
        content address, so any intact record is the right result."""
        path = tmp_path / "points.jsonl"
        fps = _fps(4)
        with SweepJournal(path) as a, SweepJournal(path) as b:
            a.append(fps[0], 0)
            b.append(fps[1], 1)
            a.append(fps[2], 4)
            b.append(fps[2], 4)  # both computed point 2: same result
            b.append(fps[3], 9)
        load = load_journal(path)
        assert load.records == 5
        assert load.corrupt == 0
        assert load.results == {fps[0]: 0, fps[1]: 1, fps[2]: 4, fps[3]: 9}


class TestStaleSchemaRecord:
    def test_checksum_valid_stale_schema_is_skipped(self, tmp_path):
        path = tmp_path / "points.jsonl"
        fps = _fps(3)
        lines = [
            _record_line(fps[0], 0),
            # a future-format record whose checksum genuinely verifies:
            # the schema gate must win before the checksum is consulted
            _record_line(fps[1], 1, schema=JOURNAL_SCHEMA + 1),
            _record_line(fps[2], 4),
        ]
        path.write_text("\n".join(lines) + "\n")
        load = load_journal(path)
        assert load.records == 2
        assert load.corrupt == 1
        assert fps[1] not in load.results

    def test_resume_recomputes_the_stale_point(self, tmp_path):
        path = tmp_path / "points.jsonl"
        fps = _fps(2)
        lines = [
            _record_line(fps[0], 0),
            _record_line(fps[1], 1, schema=JOURNAL_SCHEMA + 1),
        ]
        path.write_text("\n".join(lines) + "\n")
        with SweepJournal(path) as journal:
            assert journal.resumed_records == 1
            assert journal.corrupt_records == 1
            assert SweepJournal.is_miss(journal.lookup(fps[1]))
            journal.append(fps[1], _point(1))
        assert load_journal(path).results[fps[1]] == 1


class TestMixedDamage:
    def test_all_three_classes_in_one_file(self, tmp_path):
        """One load survives tearing, garbage and stale schemas."""
        path = tmp_path / "points.jsonl"
        fps = _fps(5)
        lines = [
            _record_line(fps[0], 0),
            _record_line(fps[1], 1, schema=JOURNAL_SCHEMA + 7),  # stale schema
            '{"schema":1,"fp":',  # unparseable
            _record_line(fps[3], 9),
        ]
        text = "\n".join(lines) + "\n"
        text += _record_line(fps[4], 16)[:-11]  # torn final line
        path.write_text(text)
        load = load_journal(path)
        assert load.results == {fps[0]: 0, fps[3]: 9}
        assert load.records == 2
        assert load.corrupt == 3  # stale schema + garbage + torn tail
