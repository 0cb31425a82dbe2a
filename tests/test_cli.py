"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main

_REPO_ROOT = Path(__file__).resolve().parents[1]


def _run_cli(*argv: str, cwd=None, timeout=300) -> subprocess.CompletedProcess:
    """Invoke the real ``python -m repro`` entry point (exit codes and
    stderr behavior must hold for the installed command, not just
    ``main()`` in-process)."""
    env = dict(os.environ, PYTHONPATH=str(_REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env, cwd=cwd or _REPO_ROOT, capture_output=True, text=True, timeout=timeout,
    )


class TestList:
    def test_lists_algorithms_and_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("ucube", "maxport", "combine", "wsort", "fig9", "fig14"):
            assert name in out


class TestTree:
    def test_prints_tree(self, capsys):
        rc = main(["tree", "-n", "4", "-d", "1,3,5,7,11,12,14,15", "-a", "wsort"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "steps: 2" in out
        assert "contention-free" in out

    def test_hex_and_binary_destinations(self, capsys):
        rc = main(["tree", "-n", "4", "-d", "0b0101 0x0b 7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 destination(s)" in out

    def test_one_port(self, capsys):
        rc = main(["tree", "-n", "4", "-d", "1,2,3,4,5,6,7,8", "-a", "ucube", "-p", "one"])
        assert rc == 0
        assert "steps: 4" in capsys.readouterr().out

    def test_simulate_flag(self, capsys):
        rc = main(["tree", "-n", "4", "-d", "1,3,5", "--simulate"])
        assert rc == 0
        assert "simulated" in capsys.readouterr().out

    def test_ascending(self, capsys):
        rc = main(["tree", "-n", "4", "-d", "1,3,5", "--ascending"])
        assert rc == 0


class TestExperiment:
    def test_fig9_runs(self, capsys, monkeypatch):
        # shrink by forcing fast mode (the default)
        monkeypatch.delenv("REPRO_FULL", raising=False)
        rc = main(["experiment", "fig9"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out and "wsort" in out

    def test_unknown_id_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "nope"])


class TestReport:
    def test_report_single_figure(self, capsys):
        rc = main(["report", "--figures", "fig11"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert "| PASS |" in out
        assert "FAIL" not in out


class TestTreeTimeline:
    def test_timeline_rendered(self, capsys):
        rc = main(["tree", "-n", "4", "-d", "1,3,5", "--timeline"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "channel occupancy" in out
        assert "worm0" in out


class TestExperimentTelemetry:
    def test_fig9_telemetry_writes_record_per_point(self, capsys, monkeypatch, tmp_path):
        """Acceptance: ``experiment fig9 --telemetry out.jsonl`` writes at
        least one valid RunRecord line per figure point, parseable back."""
        from repro.obs.sink import read_jsonl

        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        out = str(tmp_path / "out.jsonl")
        rc = main(["experiment", "fig9", "--telemetry", out])
        assert rc == 0
        rendered = capsys.readouterr().out
        records = read_jsonl(out)
        points = [r for r in records if r.kind == "experiment-point"]
        # one x value per rendered table row; >= 1 record per point
        xs = {r.extra["x"] for r in points}
        assert len(points) >= len(xs) >= 1
        first = points[0]
        assert first.extra["experiment"] == "fig9"
        assert first.n == 6
        assert set(first.extra["columns"]) == {"ucube", "maxport", "combine", "wsort"}
        # every x in the table appears in the telemetry
        for line in rendered.splitlines():
            cells = line.split()
            if cells and cells[0].isdigit():
                assert int(cells[0]) in xs

    def test_telemetry_flag_does_not_leak(self, monkeypatch, tmp_path):
        from repro.obs.sink import get_sink

        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        out = str(tmp_path / "out.jsonl")
        main(["experiment", "fig9", "--telemetry", out])
        assert get_sink() is None

    def test_disabled_telemetry_is_bit_identical(self, monkeypatch, tmp_path):
        """With telemetry enabled vs disabled, simulated event counts and
        delays are bit-identical (instrumentation observes, never
        perturbs)."""
        from repro.multicast.registry import get_algorithm
        from repro.obs.sink import capture
        from repro.simulator.run import simulate_multicast

        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        tree = get_algorithm("wsort").build_tree(6, 0, [1, 3, 7, 15, 31, 63, 42])
        plain = simulate_multicast(tree, size=4096)
        with capture():
            instrumented = simulate_multicast(tree, size=4096)
        assert instrumented.delays == plain.delays
        assert instrumented.events == plain.events
        assert instrumented.total_blocked_time == plain.total_blocked_time


class TestStats:
    def test_stats_prints_full_instrumentation(self, capsys):
        rc = main(["stats", "-n", "4", "-d", "1,3,5,9", "-a", "wsort"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "multicast replay" in out
        assert "metrics:" in out
        assert "sim.events" in out
        assert "hotspots:" in out
        assert "per-dim busy" in out

    def test_stats_json_is_valid_run_record(self, capsys):
        from repro.obs.telemetry import RunRecord

        rc = main(["stats", "-n", "4", "-d", "1,3,5", "--json"])
        assert rc == 0
        rec = RunRecord.from_json(capsys.readouterr().out)
        assert rec.kind == "multicast"
        assert "channels" in rec.extra and "probes" not in rec.extra

    def test_stats_telemetry_export(self, capsys, tmp_path):
        from repro.obs.sink import read_jsonl

        out = str(tmp_path / "stats.jsonl")
        rc = main(["stats", "-n", "3", "-d", "1,2,3", "--telemetry", out])
        assert rc == 0
        records = read_jsonl(out)
        assert len(records) == 1
        assert records[0].extra["channels"]["channels_used"] > 0


class TestCollectiveTelemetry:
    def test_collective_telemetry_export(self, capsys, tmp_path, monkeypatch):
        from repro.obs.sink import read_jsonl

        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        out = str(tmp_path / "col.jsonl")
        rc = main(["collective", "scatter", "-n", "3", "--size", "64", "--telemetry", out])
        assert rc == 0
        records = read_jsonl(out)
        assert len(records) == 1
        assert records[0].kind == "comm"
        assert records[0].algorithm == "scatter"


class TestFaults:
    def test_sweep_prints_counters(self, capsys):
        rc = main(["faults", "-n", "4", "--links", "0,2", "--sets", "2", "-m", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault sweep" in out
        for col in ("delivered", "ratio", "aborted", "retries"):
            assert col in out
        for name in ("ucube", "maxport", "combine", "wsort"):
            assert name in out

    def test_repair_mode_single_algorithm(self, capsys):
        rc = main(
            ["faults", "-n", "4", "--links", "2", "--sets", "1", "-a", "wsort", "--repair"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault-aware repair" in out
        assert "ucube" not in out

    def test_min_ratio_gate(self, capsys):
        # an impossible floor forces a nonzero exit once faults bite
        rc = main(
            ["faults", "-n", "4", "--links", "1", "--sets", "1", "-m", "2",
             "--deadline-us", "1", "--min-ratio", "1.0"]
        )
        assert rc == 1

    def test_telemetry_export(self, capsys, tmp_path, monkeypatch):
        from repro.obs.sink import read_jsonl

        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        out = str(tmp_path / "faults.jsonl")
        rc = main(
            ["faults", "-n", "6", "--links", "3", "--sets", "2", "-a", "wsort",
             "--telemetry", out]
        )
        assert rc == 0
        records = read_jsonl(out)
        assert len(records) == 2  # one per destination set
        for rec in records:
            assert rec.kind == "degraded-multicast"
            assert rec.extra["failed_links"] == 3
            assert "aborted_worms" in rec.extra and "retries" in rec.extra
            assert rec.extra["deadlock"]["verdict"] in (
                "clear", "contention", "fault-stall", "deadlock"
            )


class TestExitCodes:
    """Failures must reach the invoking shell as nonzero exit codes --
    a CI script piping ``repro-hypercube`` must never see a silent 0."""

    def test_runtime_error_exits_one_with_message(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        proc = _run_cli(
            "experiment", "fig9", "--cache-dir", str(blocker / "cache")
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_sweep_id_exits_two(self):
        proc = _run_cli("sweep", "not-a-figure")
        assert proc.returncode == 2
        assert "unknown experiment" in proc.stderr

    def test_report_fail_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.analysis.report.markdown_report",
            lambda fast, figures: "| claim | FAIL | detail |",
        )
        assert main(["report", "--figures", "fig11"]) == 1

    def test_bad_watchdog_values_exit_two_before_the_sweep(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the sweep started despite a bad watchdog value")

        monkeypatch.setattr("repro.analysis.experiments.run_sweep", no_work)
        argv = ["sweep", "fig9", "--jobs", "2"]
        assert main([*argv, "--soft-timeout-s", "-3", "--hard-timeout-s", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "timeout must be > 0" in err
        # an inverted pair is refused, not rewritten to a 200 s hard timeout
        assert main([*argv, "--soft-timeout-s", "200", "--hard-timeout-s", "100"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "hard timeout (100.0s) must be >= soft timeout (200.0s)" in err
        monkeypatch.setenv("REPRO_WATCHDOG_SOFT_S", "abc")
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "REPRO_WATCHDOG_SOFT_S" in err

    @pytest.mark.parametrize(
        "argv",
        [["experiment", "fig9", "--cache-dir", "points"], ["report", "--figures", "fig9"]],
        ids=["experiment", "report"],
    )
    def test_bad_watchdog_env_exits_two_before_a_sweep_context_opens(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        """Each of these opens a sweep context, which reads
        ``REPRO_WATCHDOG_*``; the CLI reads it first."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_WATCHDOG_HARD_S", "abc")

        def no_work(*args, **kwargs):
            raise AssertionError("a sweep context opened despite a bad watchdog value")

        monkeypatch.setattr("repro.analysis.experiments.sweep_context", no_work)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "REPRO_WATCHDOG_HARD_S='abc' is not a valid float" in err
        assert not (tmp_path / "points").exists()

    def test_a_hard_timeout_not_given_follows_the_soft_one(self, capsys, monkeypatch):
        seen = []

        def record(ids, **kwargs):
            seen.append(kwargs["watchdog"])
            return {}

        monkeypatch.setattr("repro.analysis.experiments.run_sweep", record)
        monkeypatch.setenv("REPRO_WATCHDOG_RETRIES", "5")
        assert main(["sweep", "fig9", "--jobs", "2", "--soft-timeout-s", "200"]) == 0
        (watchdog,) = seen
        assert (watchdog.soft_timeout_s, watchdog.hard_timeout_s) == (200.0, 200.0)
        assert watchdog.retry.max_retries == 5  # nothing from the environment is dropped

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "fig9", "--parallel"],
            ["sweep", "fig9", "--fabric-port", "0", "--fabric-wait-s", "0"],
            ["experiment", "fig9", "--parallel"],
            ["sweep", "fig9", "--parallel", "--trace", "trace.json",
             "--prometheus", "metrics.prom"],
        ],
    )
    def test_bad_repro_jobs_exits_two_before_any_work(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_JOBS", "abc")
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "REPRO_JOBS='abc'" in err
        assert not (tmp_path / "trace.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["tree", "-n", "4", "-d", "1,2", "-p", "abc"],
            ["stats", "-n", "4", "-d", "1,2", "-p", "abc"],
            ["collective", "broadcast", "-n", "3", "-p", "abc"],
            ["experiment", "fig9", "--precision", "-3"],
            ["sweep", "fig9", "--precision", "-1"],
            ["faults", "-n", "4", "--sets", "0"],
            ["faults", "-n", "4", "--links", "-1"],
            ["faults", "-n", "4", "--links", ""],
            ["report", "--figures", "nope"],
            ["faults", "-n", "4", "--sets", "1", "--links", "1", "--retries", "-1"],
            ["faults", "-n", "4", "--sets", "1", "--links", "1", "--deadline-us", "-5"],
            ["faults", "-n", "4", "--sets", "1", "--links", "1", "--deadline-us", "nan"],
            ["faults", "-n", "4", "--sets", "1", "--links", "1", "--deadline-us", "inf"],
            ["faults", "-n", "4", "--sets", "1", "--links", "1", "--min-ratio", "nan"],
            ["faults", "-n", "4", "--sets", "1", "--links", "1", "--min-ratio", "2"],
            # -n is capped at the service's MAX_N = 12: a list of every
            # node id of a 40-cube would exhaust memory
            ["faults", "-n", "13", "--sets", "1", "--links", "0", "-m", "2"],
            ["faults", "-n", "0", "--sets", "1", "--links", "0", "-m", "2"],
            ["tree", "-n", "13", "-d", "1"],
            ["tree", "-n", "0", "-d", "1"],
            ["stats", "-n", "13", "-d", "1"],
            ["stats", "-n", "0", "-d", "1"],
            ["collective", "broadcast", "-n", "13"],
            ["collective", "broadcast", "-n", "0"],
        ],
    )
    def test_bad_argument_exits_two_before_any_work(self, capsys, argv):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects it while parsing
            rc = exc.code
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert len([line for line in err.splitlines() if "error" in line]) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["tree", "-n", "4", "-d", "1", "--size", "-5", "--simulate"], "--size"),
            (["stats", "-n", "4", "-d", "1,2", "--top", "-1"], "--top"),
            (["faults", "-n", "4", "-m", "0"], "-m"),
            (["collective", "broadcast", "-n", "3", "--size", "0"], "--size"),
            (["faults", "-n", "4", "--size", "0"], "--size"),
            (["experiment", "fig9", "--jobs", "0"], "--jobs"),
            (["experiment", "fig9", "--jobs", "-4"], "--jobs"),
            (["sweep", "fig9", "--jobs", "0"], "--jobs"),
            (["sweep", "fig9", "--jobs", "-4"], "--jobs"),
        ],
    )
    def test_count_below_one_is_a_usage_error(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.startswith("usage: ")
        assert f"error: argument {option}: expected an integer >= 1, got " in err

    @pytest.mark.parametrize("endpoint", ["127.0.0.1:99999", "127.0.0.1:0"])
    def test_worker_port_out_of_range_exits_two_without_dialing(
        self, capsys, monkeypatch, endpoint
    ):
        def no_dial(*args):
            raise AssertionError("worker dialed an invalid endpoint")

        monkeypatch.setattr("repro.parallel.worker._connect", no_dial)
        assert main(["worker", "--connect", endpoint]) == 2
        assert f"worker: expected HOST:PORT, got {endpoint!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, env",
        [
            pytest.param(["sweep", "fig9", "--hard-timeout-s", "nan"], {}, id="hard-timeout"),
            pytest.param(["sweep", "fig9", "--soft-timeout-s", "nan"], {}, id="soft-timeout"),
            pytest.param(
                ["sweep", "fig9", "--jobs", "2"], {"REPRO_WATCHDOG_HARD_S": "nan"},
                id="watchdog-env",
            ),
            pytest.param(
                ["sweep", "fig9", "--jobs", "2"], {"REPRO_WATCHDOG_SOFT_S": "nan"},
                id="watchdog-env-soft",
            ),
            pytest.param(
                ["worker", "--connect", "127.0.0.1:9", "--connect-timeout-s", "nan"], {},
                id="connect-timeout",
            ),
        ],
    )
    def test_nan_exits_two_before_any_work(self, capsys, monkeypatch, argv, env):
        """NaN fails every comparison, so each check is a negated one: a
        NaN timeout would never fire, and a NaN beat would spin."""
        for name, value in env.items():
            monkeypatch.setenv(name, value)

        def no_work(*args, **kwargs):
            raise AssertionError("work started despite a NaN argument")

        monkeypatch.setattr("repro.analysis.experiments.run_sweep", no_work)
        monkeypatch.setattr("repro.parallel.worker._connect", no_work)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "nan" in err
        # a rejected environment value names its variable and raw value
        for name in env:
            assert f"{name}='nan'" in err

    def test_worker_takes_no_beat_interval_of_its_own(self):
        """A worker beats at the interval its coordinator's welcome
        sets, so ``worker`` has three options."""
        args = build_parser().parse_args(["worker", "--connect", "127.0.0.1:9"])
        assert sorted(vars(args)) == ["command", "connect", "connect_timeout_s", "func", "label"]

    def test_nan_fabric_wait_exits_two_instead_of_spinning(self):
        proc = _run_cli(
            "sweep", "fig9", "--fabric-port", "0", "--fabric-min-workers", "1",
            "--fabric-wait-s", "nan", timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == "" and "wait_s must be >= 0, got nan" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["cache", "verify", "x"], id="cache-verify"),
            pytest.param(["serve", "--cache-dir", "x"], id="serve-cache-dir"),
            pytest.param(
                ["worker", "--connect", "127.0.0.1:9", "--cache-dir", "x"],
                id="worker-cache-dir",
            ),
            pytest.param(["sweep", "fig9", "--journal-dir", "x"], id="sweep-journal-dir"),
            pytest.param(["sweep", "fig9", "--resume"], id="sweep-resume"),
        ],
    )
    def test_retired_options_exit_two_before_any_work(self, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("work started for a retired option")

        monkeypatch.setattr("repro.analysis.experiments.run_sweep", no_work)
        monkeypatch.setattr("repro.service.serve_async", no_work)
        monkeypatch.setattr("repro.parallel.worker._connect", no_work)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.startswith("usage: ")


class TestSweepResumeCli:
    def test_sweep_journal_then_resume(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "fig11", "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert "10 requested, 0 served, 10 computed" in first
        assert f"log {os.path.join(cache_dir, 'points.jsonl')}" in first
        assert main(["sweep", "fig11", "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert "10 requested, 10 served, 0 computed" in second

        def table(text: str) -> list[str]:
            return [ln for ln in text.splitlines() if "points:" not in ln
                    and "parallel:" not in ln]

        assert table(first) == table(second)  # resumed output byte-identical


class TestStatsFromFile:
    """``stats --from``: summarize exported telemetry, exit 2 on damage."""

    def test_missing_file_exits_two(self, capsys, tmp_path):
        rc = main(["stats", "--from", str(tmp_path / "absent.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: cannot read telemetry file" in err
        assert "Traceback" not in err

    def test_corrupt_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": 2, "kind": "x"\n{torn\n', encoding="utf-8")
        rc = main(["stats", "--from", str(bad)])
        assert rc == 2
        assert "error: corrupt telemetry file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "[1, 2]",
            '"hello"',
            '{"run_id": "x", "kind": "multicast", "n": null}',
            '{"run_id": "x", "kind": "multicast", "n": 3, "metrics": 5}',
            '{"schema":2,"run_id":"r","kind":"multicast","n":3,"events":"5"}',
            '{"schema":2,"run_id":"r","kind":"multicast","n":3,"trace_id":[1]}',
        ],
    )
    def test_well_formed_json_that_is_no_record_exits_two(self, capsys, tmp_path, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n", encoding="utf-8")
        rc = main(["stats", "--from", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: corrupt telemetry file" in err
        assert "Traceback" not in err

    def test_missing_n_without_from_exits_two(self, capsys):
        rc = main(["stats"])
        assert rc == 2
        assert "required (unless --from)" in capsys.readouterr().err

    def test_summarizes_valid_export(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        out = str(tmp_path / "stats.jsonl")
        assert main(["stats", "-n", "3", "-d", "1,2,3", "--telemetry", out]) == 0
        capsys.readouterr()
        rc = main(["stats", "--from", out])
        assert rc == 0
        text = capsys.readouterr().out
        assert "1 record(s)" in text
        assert "multicast: 1" in text

    def test_json_summary(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        out = str(tmp_path / "stats.jsonl")
        assert main(["stats", "-n", "3", "-d", "1,2", "--telemetry", out]) == 0
        capsys.readouterr()
        assert main(["stats", "--from", out, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["records"] == 1
        assert doc["kinds"] == {"multicast": 1}

    def test_exit_two_through_real_entry_point(self, tmp_path):
        proc = _run_cli("stats", "--from", str(tmp_path / "gone.jsonl"))
        assert proc.returncode == 2
        assert "error: cannot read telemetry file" in proc.stderr

    def test_truncated_gzip_exits_two(self, capsys, tmp_path, monkeypatch):
        import gzip

        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        plain = tmp_path / "stats.jsonl"
        for dests in ("1,2,3", "1,5", "2,6,7"):
            assert main(["stats", "-n", "3", "-d", dests, "--telemetry", str(plain)]) == 0
        capsys.readouterr()
        gz = tmp_path / "stats.jsonl.1.gz"
        with gzip.open(gz, "wb") as f:
            f.write(plain.read_bytes())
        data = gz.read_bytes()
        gz.write_bytes(data[: len(data) // 2])  # damage the stream
        rc = main(["stats", "--from", str(gz)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: corrupt telemetry file" in err
        assert "Traceback" not in err


class TestServe:
    """The ``serve`` subcommand's exit-code contract."""

    def test_bad_port_exits_two(self, capsys):
        rc = main(["serve", "--port", "70000"])
        assert rc == 2
        assert "port must be in" in capsys.readouterr().err

    def test_bad_workers_exits_two(self, capsys):
        rc = main(["serve", "--port", "0", "--workers", "0"])
        assert rc == 2
        assert "--workers" in capsys.readouterr().err

    def test_bad_admission_exits_two(self, capsys):
        rc = main(["serve", "--port", "0", "--max-inflight", "0"])
        assert rc == 2
        assert "max_inflight" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--rate", "-1"], "rate_per_client must be positive"),
            (["--rate", "1", "--burst", "-5"], "burst must be >= 1"),
            (["--drain-grace-s", "-1"], "--drain-grace-s must be >= 0"),
            (["--deadline-ms", "nan"], "--deadline-ms must be positive"),
        ],
        ids=["rate", "burst", "drain-grace", "nan-deadline"],
    )
    def test_bad_admission_or_drain_value_exits_two_before_serving(self, flags, message):
        proc = _run_cli("serve", "--port", "0", *flags, timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""  # no "serving on" banner
        assert f"serve: {message}" in proc.stderr

    def test_sigterm_drains_and_exits_zero(self):
        """Boot the real process, serve one request, SIGTERM, expect a
        clean drain and exit code 0."""
        import json as _json
        import signal
        import urllib.request

        env = dict(os.environ, PYTHONPATH=str(_REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        try:
            banner = proc.stdout.readline().strip()
            assert banner.startswith("serving on http://")
            base = banner.split(" on ")[1]
            body = _json.dumps({"n": 4, "destinations": [1, 2, 3]}).encode()
            req = urllib.request.Request(base + "/v1/schedule", data=body, method="POST")
            with urllib.request.urlopen(req, timeout=30) as resp:
                assert resp.status == 200
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "drained: clean" in err

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc")
    def test_sigterm_to_the_process_group_mid_build_drains_clean(self):
        """systemd stops a service by signalling its whole process group.
        The build workers, forked before the server opened any socket,
        ignore the signal; the server drains, answers the request in
        flight, reaps its workers and exits 0, leaving the group empty."""
        import json as _json
        import signal
        import threading
        import urllib.request

        def children(pid: int) -> list[int]:
            found = []
            for entry in os.listdir("/proc"):
                try:
                    with open(f"/proc/{entry}/stat") as f:
                        fields = f.read().rsplit(")", 1)[1].split()
                except (OSError, IndexError):  # not a process, or it exited
                    continue
                if int(fields[1]) == pid:
                    found.append(int(entry))
            return found

        def sockets(pid: int) -> set[str]:
            links = []
            for fd in os.listdir(f"/proc/{pid}/fd"):
                try:
                    links.append(os.readlink(f"/proc/{pid}/fd/{fd}"))
                except OSError:
                    continue
            return {link for link in links if link.startswith("socket:")}

        env = dict(os.environ, PYTHONPATH=str(_REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
            start_new_session=True,
        )
        answers = []
        try:
            base = proc.stdout.readline().strip().split(" on ")[1]
            workers = children(proc.pid)
            assert len(workers) == 2
            # the heaviest request the protocol admits, so the signal
            # lands while its build runs
            doc = {"n": 12, "destinations": list(range(1, 4096))}
            req = urllib.request.Request(
                base + "/v1/simulate", data=_json.dumps(doc).encode(), method="POST"
            )

            def send():
                with urllib.request.urlopen(req, timeout=60) as resp:
                    answers.append(resp.status)

            client = threading.Thread(target=send)
            client.start()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                with urllib.request.urlopen(base + "/health", timeout=10) as resp:
                    if _json.load(resp)["inflight"]:
                        break
            # the server now holds its listening socket and the client's
            # connection; its workers hold neither
            server_sockets = sockets(proc.pid)
            for pid in workers:
                assert not sockets(pid) & server_sockets
            os.killpg(proc.pid, signal.SIGTERM)
            client.join(timeout=60)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert answers == [200]
        assert proc.returncode == 0, err
        assert "drained: clean" in err
        with pytest.raises(ProcessLookupError):  # no process is left in the group
            os.killpg(proc.pid, 0)


class TestTraceSubcommand:
    """``sweep --trace PATH --prometheus PATH``: the traced sweep's
    timeline and metrics registry."""

    def test_trace_writes_perfetto_loadable_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        rc = main(["sweep", "fig11", "--trace", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "trace " in text and "event(s) written" in text
        assert "parallel: 10 point(s)" in text
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        names = {e["name"] for e in doc["traceEvents"]}
        # nested schedule/verify/simulate spans per point, per acceptance
        for required in ("experiment", "point.delay", "schedule.build",
                         "simulate", "verify.delivery"):
            assert required in names, f"missing {required} spans"
        for event in doc["traceEvents"]:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)

    def test_trace_prometheus_sidecar(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        prom = tmp_path / "metrics.prom"
        rc = main(["sweep", "fig11", "--trace", str(out), "--prometheus", str(prom)])
        assert rc == 0
        text = prom.read_text()
        assert "# TYPE repro_sim_parallel_points_total counter" in text
        assert "repro_sim_parallel_points_total 10" in text

    def test_sweep_trace_flag(self, capsys, tmp_path):
        import json

        out = tmp_path / "sweep-trace.json"
        rc = main(["sweep", "fig11", "--trace", str(out)])
        assert rc == 0
        assert "event(s) written" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert {e["name"] for e in doc["traceEvents"]} >= {"experiment", "point.delay"}


class TestCollective:
    @pytest.mark.parametrize(
        "op", ["broadcast", "scatter", "gather", "allgather", "reduce", "allreduce", "barrier"]
    )
    def test_ops_run(self, capsys, op):
        rc = main(["collective", op, "-n", "3", "--size", "64"])
        assert rc == 0
        assert op in capsys.readouterr().out

    def test_multicast_with_destinations(self, capsys):
        rc = main(["collective", "multicast", "-n", "4", "-d", "1,5,9", "--size", "128"])
        assert rc == 0
        assert "multicast" in capsys.readouterr().out
