"""Chaos tests: the sweep runtime under injected process-level failure.

Every test here damages the runtime mid-flight -- killed workers,
injected hangs, a crashed sweep process, truncated or corrupted point
logs -- and asserts the same two invariants each time:

1. the sweep still *terminates*, and
2. the results are **byte-identical** to an undisturbed serial run.

The point functions live at module level so they pickle by reference
into worker processes; destructive behaviors are gated on
``os.getpid() != _PARENT_PID`` so the in-process fallback (which runs
in the parent) always completes.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.experiments import run_sweep
from repro.obs.exporters import to_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import capture
from repro.obs.trace_spans import trace_capture
from repro.parallel.engine import run_points, sweep_context
from repro.parallel.fabric import FabricConfig
from repro.parallel.journal import POINT_LOG, load_journal
from repro.parallel.resilience import RetryPolicy, WatchdogConfig
from tests.parallel.test_fabric import _free_port, _reap, _spawn_worker

_PARENT_PID = os.getpid()
_REPO_ROOT = Path(__file__).resolve().parents[2]

#: A watchdog tuned for test speed: hangs are declared within ~half a
#: second, and a failed chunk gets one retry round after a backoff of
#: milliseconds, not seconds.
_FAST_WATCHDOG = WatchdogConfig(
    soft_timeout_s=0.2,
    hard_timeout_s=0.45,
    poll_s=0.05,
    retry=RetryPolicy(max_retries=1, backoff_base_s=0.01, backoff_cap_s=0.05),
)


def _square(x: int) -> int:
    return x * x


def _die_in_worker(x: int) -> int:
    if os.getpid() != _PARENT_PID:
        os._exit(13)  # hard crash mid-chunk
    return x * x


def _hang_in_worker(x: int) -> int:
    if os.getpid() != _PARENT_PID:
        time.sleep(60.0)  # way past the hard timeout; killed, not joined
    return x * x


def _stop_in_worker(x: int) -> int:
    if os.getpid() != _PARENT_PID:
        os.kill(os.getpid(), signal.SIGSTOP)  # can neither beat nor take SIGTERM
    return x * x


#: Run in a child interpreter by test_stopped_worker_is_killed_at_hard_timeout.
_STOPPED_WORKER_SWEEP = """
import json, os
from tests.parallel.test_chaos import _FAST_WATCHDOG, _stop_in_worker
from repro.parallel.engine import run_points, sweep_context

with sweep_context(jobs=2, chunk_size=1, watchdog=_FAST_WATCHDOG) as registry:
    results = run_points(_stop_in_worker, range(4))
try:
    os.waitpid(-1, os.WNOHANG)  # any child left, reaped or not, is a leak
    children_left = True
except ChildProcessError:
    children_left = False
print(json.dumps({
    "results": results,
    "hung_chunks": registry.snapshot()["sim.resilience.hung_chunks"]["value"],
    "children_left": children_left,
}))
"""


def _assert_silent(registry: MetricsRegistry, sink) -> None:
    """No watchdog or retry decision was taken: no ``sim.resilience.*``
    instrument exists and no ``resilience-event`` record was written."""
    assert [name for name in registry.names() if name.startswith("sim.resilience.")] == []
    assert [r.extra for r in sink.records if r.kind == "resilience-event"] == []


class TestWatchdogEngine:
    def test_healthy_sweep_unaffected_by_watchdog(self):
        """An undisturbed sweep runs one round and stays silent, on
        local workers and on a two-worker TCP fabric alike."""
        with capture() as sink:
            with sweep_context(jobs=2, chunk_size=2, watchdog=_FAST_WATCHDOG) as registry:
                assert run_points(_square, range(8)) == [x * x for x in range(8)]
        snap = registry.snapshot()
        assert snap["sim.parallel.points_remote"]["value"] == 8
        _assert_silent(registry, sink)

        # timeouts generous enough that two freshly started interpreters
        # on a loaded host are never flagged slow
        patient = WatchdogConfig(soft_timeout_s=5.0, hard_timeout_s=10.0, poll_s=0.05)
        port = _free_port()
        workers = [_spawn_worker(port), _spawn_worker(port)]
        try:
            with capture() as sink:
                with sweep_context(
                    jobs=2, chunk_size=2, watchdog=patient,
                    fabric=FabricConfig(bind_port=port, min_workers=2, wait_s=30.0),
                ) as registry:
                    assert run_points(_square, range(8)) == [x * x for x in range(8)]
        finally:
            codes = _reap(workers)
        assert codes == [0, 0]
        snap = registry.snapshot()
        assert snap["sim.fabric.workers_joined"]["value"] == 2
        assert snap["sim.fabric.points_remote"]["value"] == 8
        _assert_silent(registry, sink)

    def test_crashing_workers_retry_then_quarantine(self):
        """Workers that die on every attempt: each point is requeued for
        the one retry round the budget allows, then completes in-process
        under a ``pool-degraded`` event -- the sweep terminates with
        full results."""
        with capture() as sink:
            with sweep_context(
                jobs=2, chunk_size=2, watchdog=_FAST_WATCHDOG
            ) as registry:
                assert run_points(_die_in_worker, range(6)) == [
                    x * x for x in range(6)
                ]
        snap = registry.snapshot()
        assert snap["sim.resilience.degraded_points"]["value"] == 6
        assert snap["sim.resilience.requeued_points"]["value"] == 6
        assert snap["sim.fabric.hosts_lost"]["value"] >= 1
        events = {r.extra["event"] for r in sink.records if r.kind == "resilience-event"}
        assert "pool-degraded" in events

    @pytest.mark.parametrize("max_retries", range(5))
    def test_retry_budget_is_honoured_exactly(self, max_retries):
        """Every worker dies on every attempt: each of the
        ``max_retries`` rounds the budget allows requeues all 4 points,
        and the round after it runs them in-process under one
        ``pool-degraded`` event."""
        wd = WatchdogConfig(
            poll_s=0.05,
            retry=RetryPolicy(max_retries=max_retries, backoff_base_s=0.0, backoff_cap_s=0.0),
        )
        with capture() as sink:
            with sweep_context(jobs=2, chunk_size=2, watchdog=wd) as registry:
                assert run_points(_die_in_worker, range(4)) == [0, 1, 4, 9]
        assert registry.counter("sim.resilience.requeued_points").value == 4 * max_retries
        assert registry.counter("sim.resilience.degraded_points").value == 4
        assert registry.counter("sim.parallel.fallback_points").value == 4
        events = [r.extra for r in sink.records if r.kind == "resilience-event"]
        assert events == [{"event": "pool-degraded", "points": 4, "rounds": max_retries + 1}]

    def test_hung_workers_are_killed_and_sweep_terminates(self):
        """The pre-watchdog engine would block forever here; the
        watchdog must declare the pool hung within the hard timeout,
        kill it, and finish the points in-process."""
        start = time.perf_counter()
        with sweep_context(
            jobs=2, chunk_size=1, watchdog=_FAST_WATCHDOG
        ) as registry:
            assert run_points(_hang_in_worker, range(4)) == [0, 1, 4, 9]
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0  # terminated by the watchdog, not the sleep
        snap = registry.snapshot()
        assert snap["sim.resilience.hung_chunks"]["value"] >= 1
        assert snap["sim.fabric.hosts_lost"]["value"] >= 1
        assert snap["sim.resilience.soft_timeouts"]["value"] >= 1

    def test_stopped_worker_is_killed_at_hard_timeout(self):
        """A SIGSTOPped worker ignores SIGTERM until it is continued, so
        only SIGKILL reaps it.  The sweep runs in a child interpreter
        whose whole process group is killed on timeout, so a sweep that
        hangs fails this test rather than the suite."""
        env = dict(os.environ, PYTHONPATH=str(_REPO_ROOT / "src"))
        child = subprocess.Popen(
            [sys.executable, "-c", _STOPPED_WORKER_SWEEP], env=env, cwd=_REPO_ROOT,
            start_new_session=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("a stopped worker hung the sweep")
        assert child.returncode == 0, err
        report = json.loads(out)
        assert report["results"] == [0, 1, 4, 9]
        assert report["hung_chunks"] >= 1
        assert report["children_left"] is False

    def test_repeated_pool_loss_degrades_to_in_process(self):
        wd = WatchdogConfig(
            soft_timeout_s=0.2,
            hard_timeout_s=0.45,
            poll_s=0.05,
            # no retry round: the first round that loses its workers
            # degrades what it held to in-process
            retry=RetryPolicy(max_retries=0, backoff_base_s=0.01, backoff_cap_s=0.02),
        )
        with sweep_context(jobs=2, chunk_size=2, watchdog=wd) as registry:
            assert run_points(_die_in_worker, range(4)) == [0, 1, 4, 9]
        snap = registry.snapshot()
        assert snap["sim.resilience.degraded_points"]["value"] == 4
        assert snap["sim.parallel.fallback_points"]["value"] == 4


def _crashing_delay_point(monkeypatch, crash_after: int):
    """Replace the fig11/fig12 point function with a wrapper that
    raises after ``crash_after`` successful points.  functools.wraps
    keeps the point fingerprint identical to the real function, as a
    real crash-and-resume would see."""
    from repro.analysis import delay as delay_mod

    original = delay_mod._delay_point
    calls = {"n": 0}

    @functools.wraps(original)
    def wrapper(spec):
        if calls["n"] >= crash_after:
            raise RuntimeError("injected mid-sweep crash")
        calls["n"] += 1
        return original(spec)

    monkeypatch.setattr(delay_mod, "_delay_point", wrapper)


class TestCrashResume:
    def test_fig11_crash_then_resume_is_byte_identical(self, tmp_path, monkeypatch):
        """The acceptance scenario, in-process: a fig11 sweep logging to
        a cache dir dies mid-run; re-running it with the same directory
        completes from the log and renders byte-identically to an
        undisturbed serial run."""
        reference = run_sweep(["fig11"], fast=True)["fig11"].to_json()

        cache_dir = tmp_path / "cache"
        _crashing_delay_point(monkeypatch, crash_after=4)
        with pytest.raises(RuntimeError, match="injected"):
            run_sweep(["fig11"], fast=True, cache_dir=str(cache_dir))
        monkeypatch.undo()

        crashed = load_journal(cache_dir / POINT_LOG)
        assert crashed.records == 4  # every pre-crash point was fsync'd

        registry = MetricsRegistry()
        resumed = run_sweep(
            ["fig11"], fast=True, cache_dir=str(cache_dir), metrics=registry
        )["fig11"]
        assert resumed.to_json() == reference
        snap = registry.snapshot()
        assert snap["sim.parallel.points_served"]["value"] == 4

    def test_resume_emits_sweep_resumed_event(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        _crashing_delay_point(monkeypatch, crash_after=2)
        with pytest.raises(RuntimeError):
            run_sweep(["fig11"], fast=True, cache_dir=str(cache_dir))
        monkeypatch.undo()
        with capture() as sink:
            run_sweep(["fig11"], fast=True, cache_dir=str(cache_dir))
        resumes = [r for r in sink.records if r.kind == "resilience-event"
                   and r.extra["event"] == "sweep-resumed"]
        assert resumes and resumes[0].extra["skipped"] == 2

    def test_truncated_journal_still_resumes_byte_identically(self, tmp_path):
        """A torn final write (the classic crash artifact) costs one
        point of recompute, never correctness."""
        reference = run_sweep(["fig11"], fast=True)["fig11"].to_json()
        cache_dir = tmp_path / "cache"
        run_sweep(["fig11"], fast=True, cache_dir=str(cache_dir))
        log_path = cache_dir / POINT_LOG
        raw = log_path.read_bytes()
        log_path.write_bytes(raw[: int(len(raw) * 0.8)])  # tear the tail

        registry = MetricsRegistry()
        resumed = run_sweep(
            ["fig11"], fast=True, cache_dir=str(cache_dir), metrics=registry
        )["fig11"]
        assert resumed.to_json() == reference
        hits = registry.snapshot()["sim.parallel.points_served"]["value"]
        assert 0 < hits < 10  # some resumed, the torn tail recomputed

    def test_corrupted_journal_records_recompute_not_crash(self, tmp_path):
        reference = run_sweep(["fig11"], fast=True)["fig11"].to_json()
        cache_dir = tmp_path / "cache"
        run_sweep(["fig11"], fast=True, cache_dir=str(cache_dir))
        log_path = cache_dir / POINT_LOG
        lines = log_path.read_text().splitlines()
        # tamper with two records: one unparseable, one checksum-stale
        lines[2] = lines[2][: len(lines[2]) // 2]
        record = json.loads(lines[3])
        record["result"] = {"forged": True}
        lines[3] = json.dumps(record)
        log_path.write_text("\n".join(lines) + "\n")

        resumed = run_sweep(["fig11"], fast=True, cache_dir=str(cache_dir))["fig11"]
        assert resumed.to_json() == reference


class TestTraceChaos:
    """Span replay across the process boundary under worker failure.

    A chunk that dies after opening spans must never corrupt the parent
    trace: every surviving span still parents within the trace, ids stay
    unique, and the trace still exports as a valid Chrome trace."""

    @staticmethod
    def _assert_trace_coherent(tracer) -> None:
        ids = [s.span_id for s in tracer.spans]
        assert len(set(ids)) == len(ids), "span ids collided"
        known = set(ids)
        for s in tracer.spans:
            assert s.trace_id == tracer.trace_id
            assert s.parent_id is None or s.parent_id in known, (
                f"dangling parent {s.parent_id!r} on {s.name}"
            )
        # and the whole thing still serializes as a Chrome trace
        json.dumps(to_chrome_trace(tracer))

    def test_healthy_parallel_run_replays_chunk_spans(self):
        with trace_capture(label="chaos-healthy") as tracer:
            with sweep_context(jobs=2, chunk_size=2, watchdog=_FAST_WATCHDOG):
                assert run_points(_square, range(8)) == [x * x for x in range(8)]
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s.name, []).append(s)
        (dispatch,) = by_name["parallel.dispatch"]
        assert by_name["parallel.chunk"], "worker spans never replayed"
        for chunk in by_name["parallel.chunk"]:
            assert chunk.parent_id == dispatch.span_id
        self._assert_trace_coherent(tracer)

    def test_dying_workers_leave_parent_trace_coherent(self):
        """Every chunk dies mid-flight (its span snapshot is lost with
        the worker); the retry budget runs out and the points finish
        in-process under the parent tracer.  Results stay correct and
        the parent trace stays internally consistent."""
        with trace_capture(label="chaos-crash") as tracer:
            with sweep_context(
                jobs=2, chunk_size=2, watchdog=_FAST_WATCHDOG
            ) as registry:
                assert run_points(_die_in_worker, range(6)) == [
                    x * x for x in range(6)
                ]
        snap = registry.snapshot()
        assert snap["sim.resilience.degraded_points"]["value"] == 6
        names = {s.name for s in tracer.spans}
        assert "parallel.dispatch" in names
        assert "resilience.pool-degraded" in names
        # no span from a dead worker may dangle or collide
        self._assert_trace_coherent(tracer)
        assert all(s.finished or s.attrs.get("partial") for s in tracer.spans)


@pytest.mark.slow
class TestKilledSweepProcess:
    def test_sigkilled_sweep_resumes_via_cli_byte_identically(self, tmp_path):
        """The full acceptance scenario, end to end through the CLI: a
        parallel fig11 sweep logging to a cache dir is SIGKILLed mid-run
        (taking its workers with it), then the same command completes
        it from the log with output byte-identical to an undisturbed
        run."""
        cache_dir = tmp_path / "cache"
        log_path = cache_dir / POINT_LOG
        env = dict(os.environ, PYTHONPATH=str(_REPO_ROOT / "src"))
        env.pop("REPRO_FULL", None)
        argv = [
            sys.executable, "-m", "repro", "sweep", "fig11", "--json",
            "--jobs", "2", "--cache-dir", str(cache_dir),
        ]
        victim = subprocess.Popen(
            argv, env=env, cwd=_REPO_ROOT, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # wait for a few logged points, then kill the whole process
            # group (sweep parent + workers) mid-run
            deadline = time.time() + 60.0
            while time.time() < deadline:
                if log_path.exists() and len(log_path.read_text().splitlines()) >= 3:
                    break
                if victim.poll() is not None:
                    break  # finished before we could kill it; still fine
                time.sleep(0.02)
            assert log_path.exists(), "sweep never opened its point log"
            if victim.poll() is None:
                os.killpg(victim.pid, signal.SIGKILL)
        finally:
            victim.wait(timeout=30)

        logged = load_journal(log_path).records
        assert logged >= 3

        resumed = subprocess.run(
            argv, env=env, cwd=_REPO_ROOT,
            capture_output=True, text=True, timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert f"requested, {logged} served" in resumed.stderr

        reference = run_sweep(["fig11"], fast=True)["fig11"]
        document = json.loads(resumed.stdout)
        assert document["fig11"] == json.loads(reference.to_json())
