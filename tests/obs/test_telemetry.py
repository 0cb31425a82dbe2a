"""Tests for RunRecord round-trips, sinks, and the env/CLI toggle."""

from __future__ import annotations

import json

import pytest

from repro.collectives.graph import simulate_comm
from repro.collectives.scatter import scatter_graph
from repro.faults import FaultScenario, LinkFault, simulate_degraded_multicast
from repro.multicast.registry import get_algorithm
from repro.obs.sink import (
    ENV_VAR,
    JsonlSink,
    MemorySink,
    capture,
    configure,
    get_sink,
    read_jsonl,
)
from repro.obs.telemetry import RunRecord, new_run_id, summarize_delays
from repro.obs.trace_spans import trace_capture
from repro.simulator.multirun import simulate_concurrent_multicasts
from repro.simulator.run import simulate_multicast


def _make_record(**overrides) -> RunRecord:
    base = dict(
        run_id=new_run_id(),
        kind="multicast",
        n=4,
        algorithm="wsort",
        ports="all-port",
        size=4096,
        timings={"t_setup": 85.0, "t_recv": 75.0, "t_byte": 0.45, "t_hop": 2.0},
        wall_seconds=0.01,
        sim_time_us=2000.0,
        events=42,
        metrics={"sim.events": {"type": "counter", "value": 42.0}},
        extra={"avg_delay_us": 1234.5},
    )
    base.update(overrides)
    return RunRecord(**base)


class TestRunRecord:
    def test_json_round_trip_lossless(self):
        rec = _make_record()
        back = RunRecord.from_json(rec.to_json())
        assert back.to_dict() == rec.to_dict()

    def test_json_is_single_line(self):
        assert "\n" not in _make_record().to_json()

    def test_missing_required_field_rejected(self):
        data = json.loads(_make_record().to_json())
        del data["kind"]
        with pytest.raises(ValueError, match="kind"):
            RunRecord.from_dict(data)

    def test_unknown_schema_rejected(self):
        data = json.loads(_make_record().to_json())
        data["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            RunRecord.from_dict(data)

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '"hello"',
            '{"run_id": "x", "kind": "multicast", "n": null}',
            '{"run_id": "x", "kind": "multicast", "n": 3, "wall_seconds": "slow"}',
            '{"run_id": "x", "kind": "multicast", "n": 3, "metrics": 5}',
            '{"run_id": "x", "kind": "multicast", "n": 3, "extra": [1]}',
            '{"schema":2,"run_id":"r","kind":"multicast","n":3,"events":"5"}',
            '{"schema":2,"run_id":"r","kind":"multicast","n":3,"trace_id":[1]}',
        ],
    )
    def test_well_formed_json_that_is_no_record_raises_value_error(self, text):
        """Valid JSON of the wrong shape is corrupt telemetry, so it must
        raise the ValueError the loaders and ``stats --from`` expect, not
        an AttributeError or TypeError from deep inside the constructor."""
        with pytest.raises(ValueError, match="RunRecord"):
            RunRecord.from_json(text)

    def test_null_metrics_and_extra_load_as_empty(self):
        data = json.loads(_make_record().to_json())
        data["metrics"] = data["extra"] = None
        back = RunRecord.from_dict(data)
        assert back.metrics == {} and back.extra == {}

    def test_run_ids_unique(self):
        assert len({new_run_id() for _ in range(100)}) == 100

    def test_v1_record_without_trace_id_still_loads(self):
        """Telemetry written before the schema-2 bump (no ``trace_id``
        field) must keep loading: the loader accepts both versions."""
        data = json.loads(_make_record().to_json())
        data["schema"] = 1
        del data["trace_id"]
        back = RunRecord.from_dict(data)
        assert back.trace_id is None
        assert back.kind == "multicast"

    def test_v2_trace_id_round_trips(self):
        rec = _make_record(trace_id="feedbeefcafe0123")
        data = json.loads(rec.to_json())
        assert data["schema"] == 2
        assert data["trace_id"] == "feedbeefcafe0123"
        assert RunRecord.from_json(rec.to_json()).trace_id == "feedbeefcafe0123"


class TestSummarizeDelays:
    def test_empty(self):
        assert summarize_delays({})["count"] == 0

    def test_stats(self):
        s = summarize_delays({1: 10.0, 2: 20.0, 3: 30.0})
        assert s == {"count": 3, "min_us": 10.0, "mean_us": 20.0, "max_us": 30.0}


class TestSinks:
    def test_jsonl_sink_round_trip(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        sink = JsonlSink(path)
        records = [_make_record(), _make_record(kind="comm")]
        for rec in records:
            sink.write(rec)
        assert sink.written == 2
        back = read_jsonl(path)
        assert [r.to_dict() for r in back] == [r.to_dict() for r in records]

    def test_memory_sink(self):
        sink = MemorySink()
        rec = _make_record()
        sink.write(rec)
        assert sink.records == [rec]


class TestRotatingSink:
    def test_rotates_to_gz_segments_and_loses_nothing(self, tmp_path):
        from repro.obs.sink import RotatingJsonlSink

        path = str(tmp_path / "bulk.jsonl")
        sink = RotatingJsonlSink(path, max_bytes=600)
        records = [_make_record() for _ in range(10)]
        for rec in records:
            sink.write(rec)
        assert sink.written == 10
        assert sink.rotations >= 1
        segments = sink.segments()
        assert all(str(s).endswith(".gz") for s in segments[:-1])
        recovered = [r for seg in segments for r in read_jsonl(seg)]
        assert [r.run_id for r in recovered] == [r.run_id for r in records]

    def test_gzip_segment_reads_back(self, tmp_path):
        import gzip

        rec = _make_record()
        gz = tmp_path / "seg.1.gz"
        with gzip.open(gz, "wt", encoding="utf-8") as f:
            f.write(rec.to_json() + "\n")
        back = read_jsonl(gz)
        assert back[0].to_dict() == rec.to_dict()

    def test_truncated_gzip_raises_value_error(self, tmp_path):
        import gzip

        gz = tmp_path / "torn.jsonl.gz"
        with gzip.open(gz, "wt", encoding="utf-8") as f:
            for _ in range(50):
                f.write(_make_record().to_json() + "\n")
        data = gz.read_bytes()
        gz.write_bytes(data[: len(data) // 2])  # chop the stream mid-member
        with pytest.raises(ValueError, match="gzip"):
            read_jsonl(gz)

    def test_garbage_with_gzip_magic_raises_value_error(self, tmp_path):
        bad = tmp_path / "fake.gz"
        bad.write_bytes(b"\x1f\x8b" + b"not actually gzip at all")
        with pytest.raises(ValueError):
            read_jsonl(bad)

    def test_max_bytes_validation(self, tmp_path):
        from repro.obs.sink import RotatingJsonlSink

        with pytest.raises(ValueError):
            RotatingJsonlSink(str(tmp_path / "x.jsonl"), max_bytes=0)


class TestToggle:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert get_sink() is None

    def test_env_var_creates_jsonl_sink(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv(ENV_VAR, path)
        sink = get_sink()
        assert isinstance(sink, JsonlSink) and sink.path == path
        # same path keeps the same sink instance
        assert get_sink() is sink
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "other.jsonl"))
        assert get_sink() is not sink

    def test_configure_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "env.jsonl"))
        mem = MemorySink()
        prev = configure(mem)
        try:
            assert get_sink() is mem
        finally:
            configure(prev)

    def test_capture_restores_previous(self):
        with capture() as outer:
            with capture() as inner:
                assert get_sink() is inner
            assert get_sink() is outer


class TestDriverEmission:
    def test_simulate_multicast_emits_record(self):
        tree = get_algorithm("wsort").build_tree(4, 0, [1, 3, 5, 7])
        with capture() as sink:
            res = simulate_multicast(tree, size=512, label="wsort")
        assert len(sink.records) == 1
        rec = sink.records[0]
        assert rec.kind == "multicast"
        assert rec.n == 4
        assert rec.algorithm == "wsort"
        assert rec.events == res.events
        assert rec.extra["max_delay_us"] == res.max_delay
        # and it survives the JSONL round trip
        back = RunRecord.from_json(rec.to_json())
        assert back.extra["avg_delay_us"] == res.avg_delay

    def test_env_toggle_writes_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "t.jsonl")
        monkeypatch.setenv(ENV_VAR, path)
        tree = get_algorithm("ucube").build_tree(3, 0, [1, 2, 3])
        simulate_multicast(tree, size=64)
        records = read_jsonl(path)
        assert len(records) == 1 and records[0].kind == "multicast"

    def test_every_simulator_kind_carries_the_trace_id(self):
        """Fault and collective runs join to a span trace just like plain
        and concurrent multicasts."""
        tree = get_algorithm("wsort").build_tree(4, 0, [1, 3, 5, 7])
        with capture() as sink, trace_capture() as tracer:
            simulate_multicast(tree, size=512)
            simulate_concurrent_multicasts([tree, tree], size=512)
            simulate_degraded_multicast(tree, FaultScenario(4, links=(LinkFault(0, 2),)))
            simulate_comm(scatter_graph(3, 0, 256))
        assert [r.kind for r in sink.records] == [
            "multicast",
            "concurrent",
            "degraded-multicast",
            "comm",
        ]
        assert tracer.trace_id is not None
        assert all(r.trace_id == tracer.trace_id for r in sink.records)

    def test_no_trace_id_without_a_tracer(self):
        tree = get_algorithm("wsort").build_tree(4, 0, [1, 3, 5, 7])
        with capture() as sink:
            simulate_degraded_multicast(tree, None)
            simulate_comm(scatter_graph(3, 0, 256))
        assert [r.trace_id for r in sink.records] == [None, None]
