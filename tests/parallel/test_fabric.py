"""Fabric chaos tests: the TCP sweep fabric under process-level failure.

Same invariants as tests/parallel/test_chaos.py, one transport up: a
sweep distributed over real worker *processes* on a real socket must
terminate and produce results byte-identical to the serial run, no
matter which side of the wire dies.  The suite covers the frame
protocol, worker loss (SIGKILL mid-sweep), total fleet loss
(degradation to local workers), coordinator loss (SIGKILL then a
re-run from the point log, plus orphaned workers noticing and exiting), chunks that
do not pickle, and the coordinator's own shutdown.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.experiments import run_sweep
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import capture
from repro.parallel.engine import run_points, sweep_context
from repro.parallel.fabric import (
    MAX_FRAME_BYTES,
    FabricConfig,
    TcpCoordinator,
    recv_frame,
    send_frame,
)
from repro.parallel.journal import POINT_LOG, load_journal
from repro.parallel.resilience import RetryPolicy, WatchdogConfig
from repro.parallel.worker import encode_frame, run_worker

_REPO_ROOT = Path(__file__).resolve().parents[2]

#: Generous heartbeat timeouts: worker death is detected by connection
#: EOF (instant), not by timeout, so these only bound true wedges.
_FABRIC_WATCHDOG = WatchdogConfig(
    soft_timeout_s=2.0,
    hard_timeout_s=6.0,
    poll_s=0.05,
    retry=RetryPolicy(max_retries=3, backoff_base_s=0.01, backoff_cap_s=0.05),
)


def _square(x: int) -> int:
    return x * x


def _slow_square(x: int) -> int:
    time.sleep(0.05)
    return x * x


#: pickles by name, and the name ``<lambda>`` does not resolve
_module_lambda = lambda x: x + 1  # noqa: E731


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(_REPO_ROOT / "src"))
    env.pop("REPRO_FULL", None)
    return env


def _spawn_worker(port: int, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--connect", f"127.0.0.1:{port}", *extra,
        ],
        env=_worker_env(), cwd=_REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _reap(workers: list, timeout: float = 20.0) -> list:
    codes = []
    for proc in workers:
        try:
            codes.append(proc.wait(timeout=timeout))
        except subprocess.TimeoutExpired:  # pragma: no cover - test failure path
            proc.kill()
            proc.wait()
            codes.append(None)
    return codes


class TestFrameProtocol:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            payload = {"type": "chunk", "chunk": [(0, 1), (1, 2)], "trace_id": None}
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_eof_reads_none_not_raises(self):
        a, b = socket.socketpair()
        send_frame(a, {"type": "heartbeat"})
        a.close()
        try:
            assert recv_frame(b) == {"type": "heartbeat"}
            assert recv_frame(b) is None  # clean EOF
        finally:
            b.close()

    def test_torn_frame_reads_none(self):
        a, b = socket.socketpair()
        try:
            import pickle
            blob = pickle.dumps({"type": "result"})
            a.sendall(struct.pack(">Q", len(blob)) + blob[: len(blob) // 2])
            a.close()
            assert recv_frame(b) is None  # torn mid-frame EOF
        finally:
            b.close()

    def test_oversized_frame_rejected_by_sender(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(ValueError, match="exceeds"):
                send_frame(a, b"x" * (MAX_FRAME_BYTES + 1))
        finally:
            a.close()
            b.close()


class TestFabricConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="bind_port"):
            FabricConfig(bind_port=70000)
        with pytest.raises(ValueError, match="min_workers"):
            FabricConfig(min_workers=-1)
        with pytest.raises(ValueError, match="wait_s"):
            FabricConfig(wait_s=-0.1)
        with pytest.raises(ValueError, match="wait_s"):
            FabricConfig(wait_s=float("nan"))

    def test_nan_wait_does_not_spin(self):
        """``Event.wait(nan)`` returns at once, so a NaN budget must end
        the wait rather than loop on it (checked in a daemon thread, so
        a regression fails instead of hanging the suite)."""
        comm = TcpCoordinator(FabricConfig(min_workers=1, wait_s=0.0))
        joined: list[int] = []
        waiter = threading.Thread(
            target=lambda: joined.append(comm.wait_for_workers(wait_s=float("nan"))),
            daemon=True,
        )
        waiter.start()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive() and joined == [0]


class TestCoordinatorLifecycle:
    def test_stop_wakes_the_accept_thread(self):
        """Closing a listening socket does not wake a thread blocked in
        accept() on Linux; stop() must not wait that thread out."""
        comm = TcpCoordinator(FabricConfig(), watchdog=_FABRIC_WATCHDOG)
        comm.start()
        time.sleep(0.2)  # fabric-accept is parked in accept() by now
        start = time.perf_counter()
        comm.stop()
        assert time.perf_counter() - start < 1.0
        assert [t.name for t in threading.enumerate() if t.name.startswith("fabric-")] == []

    def test_a_worker_registering_after_stop_is_refused(self):
        """stop() shuts down the links it finds; one whose handshake
        ends after that would run on unnoticed, so it is refused and its
        socket closed, and no worker-joined is emitted."""
        comm = TcpCoordinator(FabricConfig(), watchdog=_FABRIC_WATCHDOG)
        register = comm._register
        entered, release = threading.Event(), threading.Event()

        def held(link):
            entered.set()
            release.wait(timeout=30.0)
            return register(link)

        comm._register = held
        comm.start()
        try:
            with capture() as sink, socket.create_connection(
                ("127.0.0.1", comm.port), timeout=10.0
            ) as sock:
                send_frame(sock, {"type": "hello", "worker_id": "late"})
                assert recv_frame(sock)["type"] == "welcome"
                assert entered.wait(timeout=10.0)
                comm.stop()
                release.set()
                assert recv_frame(sock) is None  # EOF, not a live link
                assert comm.worker_count == 0
            events = [r.extra.get("event") for r in sink.records]
            assert "worker-joined" not in events
        finally:
            release.set()
            comm.stop()


class TestHandshake:
    """The coordinator's ``poll_s`` is the one beat interval: it sends
    it in the welcome, and a worker serves only at a usable one."""

    def test_welcome_carries_the_poll_interval(self):
        comm = TcpCoordinator(FabricConfig(), watchdog=WatchdogConfig(poll_s=0.05))
        comm.start()
        try:
            with socket.create_connection(("127.0.0.1", comm.port), timeout=10.0) as sock:
                send_frame(sock, {"type": "hello", "worker_id": "raw"})
                assert recv_frame(sock) == {"type": "welcome", "beat_s": 0.05}
                # registered, so that stop() severs the link
                assert comm.wait_for_workers(min_workers=1, wait_s=10.0) == 1
        finally:
            comm.stop()

    @pytest.mark.parametrize(
        "welcome",
        [
            encode_frame({"type": "welcome"}),
            encode_frame({"type": "welcome", "beat_s": 0}),
            encode_frame({"type": "welcome", "beat_s": float("nan")}),
            encode_frame({"type": "welcome", "beat_s": float("inf")}),
            struct.pack(">Q", 4) + b"junk",
        ],
        ids=["missing", "zero", "nan", "inf", "not-a-pickle"],
    )
    def test_worker_exits_one_on_a_welcome_without_a_usable_beat(self, welcome):
        after_welcome: list = []
        with socket.create_server(("127.0.0.1", 0)) as server:

            def coordinator() -> None:
                conn, _addr = server.accept()
                with conn:
                    recv_frame(conn)  # the hello
                    conn.sendall(welcome)
                    conn.settimeout(5.0)
                    try:
                        after_welcome.append(recv_frame(conn))  # None: a hang-up
                    except OSError:
                        after_welcome.append("no hang-up within 5 s")

            thread = threading.Thread(target=coordinator, daemon=True)
            thread.start()
            port = server.getsockname()[1]
            assert run_worker(f"127.0.0.1:{port}", connect_timeout_s=5.0) == 1
            thread.join(timeout=10.0)
        # the worker hung up at once, before a single heartbeat
        assert after_welcome == [None]


class TestDegradedToLocal:
    def test_zero_workers_degrades_and_completes(self):
        """A fabric that never gains a worker must finish every point
        on local workers attached to the same coordinator."""
        comm = TcpCoordinator(FabricConfig(wait_s=0.5), watchdog=_FABRIC_WATCHDOG)
        with capture() as sink:
            with sweep_context(
                jobs=2, chunk_size=2, watchdog=_FABRIC_WATCHDOG, fabric=comm
            ) as registry:
                assert run_points(_square, range(8)) == [x * x for x in range(8)]
        snap = registry.snapshot()
        assert snap["sim.fabric.degraded_to_local"]["value"] == 1
        events = [r.extra["event"] for r in sink.records if r.kind == "fabric-event"]
        assert "fabric-degraded-local" in events
        assert events[0] == "fabric-started" and events[-1] == "fabric-stopped"


@pytest.mark.slow
class TestTcpFabric:
    def test_two_workers_byte_identical_to_serial(self):
        """The tentpole invariant: a fig9 sweep distributed over two
        worker processes renders byte-identically to the serial run."""
        reference = run_sweep(["fig9"], fast=True)["fig9"].to_json()
        port = _free_port()
        workers = [_spawn_worker(port), _spawn_worker(port)]
        try:
            registry = MetricsRegistry()
            distributed = run_sweep(
                ["fig9"], fast=True, metrics=registry,
                fabric=FabricConfig(bind_port=port, min_workers=2, wait_s=30.0),
            )["fig9"]
            assert distributed.to_json() == reference
            snap = registry.snapshot()
            assert snap["sim.fabric.workers_joined"]["value"] == 2
            assert snap["sim.fabric.chunks_completed"]["value"] > 0
            assert snap["sim.fabric.points_remote"]["value"] > 0
            assert "sim.fabric.hosts_lost" not in snap
        finally:
            codes = _reap(workers)
        # the coordinator's shutdown frame lets both workers exit 0
        assert codes == [0, 0]

    def test_sigkilled_worker_mid_sweep_results_intact(self):
        """Kill one of two workers mid-sweep: the dead host is detected
        (EOF, not timeout), its chunk requeues to the survivor, and the
        results match the serial run exactly."""
        port = _free_port()
        workers = [_spawn_worker(port), _spawn_worker(port)]
        specs = list(range(30))
        victim = workers[0]

        def assassinate() -> None:
            time.sleep(0.4)  # well inside the ~0.75 s sweep
            victim.kill()

        try:
            with capture() as sink:
                with sweep_context(
                    jobs=2, chunk_size=2, watchdog=_FABRIC_WATCHDOG,
                    fabric=FabricConfig(bind_port=port, min_workers=2, wait_s=30.0),
                ) as registry:
                    killer = threading.Thread(target=assassinate)
                    killer.start()
                    try:
                        assert run_points(_slow_square, specs) == [x * x for x in specs]
                    finally:
                        killer.join()
        finally:
            _reap(workers)
        snap = registry.snapshot()
        assert snap["sim.fabric.hosts_lost"]["value"] >= 1
        assert snap["sim.fabric.requeued_chunks"]["value"] >= 1
        events = {r.extra["event"] for r in sink.records if r.kind == "fabric-event"}
        assert "host-lost" in events

    def test_late_worker_joins_running_fabric(self):
        """Admission stays open after the sweep starts: a worker that
        connects late still serves chunks."""
        port = _free_port()
        comm = TcpCoordinator(
            FabricConfig(bind_port=port, min_workers=0, wait_s=0.0),
            watchdog=_FABRIC_WATCHDOG,
        )
        worker = None
        try:
            with sweep_context(
                jobs=2, chunk_size=2, watchdog=_FABRIC_WATCHDOG, fabric=comm
            ) as registry:
                worker = _spawn_worker(port)
                deadline = time.monotonic() + 20.0
                while comm.worker_count == 0 and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert comm.worker_count == 1
                assert run_points(_square, range(10)) == [x * x for x in range(10)]
            snap = registry.snapshot()
            assert snap["sim.fabric.points_remote"]["value"] == 10
        finally:
            if worker is not None:
                assert _reap([worker]) == [0]


@pytest.mark.slow
class TestUnpicklableChunks:
    def test_unpicklable_fn_runs_in_process_and_keeps_the_worker(self):
        """A chunk that does not pickle is the point function's fault,
        not the link's: it runs in-process, and the worker that would
        have taken it stays connected and exits 0 at shutdown."""
        offset = 1

        def closure(x: int) -> int:
            return x + offset

        port = _free_port()
        worker = _spawn_worker(port)
        try:
            with sweep_context(
                jobs=2, chunk_size=2, watchdog=_FABRIC_WATCHDOG,
                fabric=FabricConfig(bind_port=port, min_workers=1, wait_s=30.0),
            ) as registry:
                for fn in (closure, _module_lambda):
                    assert run_points(fn, range(6)) == [x + 1 for x in range(6)]
        finally:
            codes = _reap([worker])
        snap = registry.snapshot()
        assert "sim.fabric.hosts_lost" not in snap
        assert snap["sim.parallel.worker_failures"]["value"] == 6  # 3 chunks x 2 functions
        assert snap["sim.parallel.fallback_points"]["value"] == 12
        assert codes == [0]


@pytest.mark.slow
class TestKilledCoordinator:
    def test_sigkilled_coordinator_resumes_byte_identically(self, tmp_path):
        """The acceptance scenario across hosts: a fabric sweep logging
        to a cache dir has its coordinator SIGKILLed mid-run; orphaned
        workers notice the dead link and exit on their own; the same
        sweep re-run with that cache dir then completes bit-identically
        from the log."""
        cache_dir = tmp_path / "cache"
        log_path = cache_dir / POINT_LOG
        port = _free_port()
        env = _worker_env()
        workers = [_spawn_worker(port), _spawn_worker(port)]
        argv = [
            sys.executable, "-m", "repro", "sweep", "fig11", "--json",
            "--cache-dir", str(cache_dir),
            "--fabric-port", str(port), "--fabric-min-workers", "2",
            "--fabric-wait-s", "30",
        ]
        coordinator = subprocess.Popen(
            argv, env=env, cwd=_REPO_ROOT, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # wait for logged points, then SIGKILL the coordinator
            deadline = time.monotonic() + 90.0
            while time.monotonic() < deadline:
                if log_path.exists() and len(log_path.read_text().splitlines()) >= 3:
                    break
                if coordinator.poll() is not None:
                    break  # finished before the kill; the re-run still resumes
                time.sleep(0.02)
            assert log_path.exists(), "coordinator never opened its point log"
            if coordinator.poll() is None:
                os.killpg(coordinator.pid, signal.SIGKILL)
        finally:
            coordinator.wait(timeout=30)

        # the orphaned workers must notice the dead coordinator and
        # exit by themselves -- no one is left to tell them
        codes = _reap(workers, timeout=30.0)
        assert all(code is not None for code in codes), "orphaned worker leaked"

        logged = load_journal(log_path).records
        resume_argv = [
            sys.executable, "-m", "repro", "sweep", "fig11", "--json",
            "--cache-dir", str(cache_dir),
        ]
        resumed = subprocess.run(
            resume_argv, env=env, cwd=_REPO_ROOT,
            capture_output=True, text=True, timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert f"requested, {logged} served" in resumed.stderr

        reference = run_sweep(["fig11"], fast=True)["fig11"]
        document = json.loads(resumed.stdout)
        assert document["fig11"] == json.loads(reference.to_json())
