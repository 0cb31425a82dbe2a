"""Child-process lifecycle: launch, readiness, peak RSS, clean stop.

Every child starts in its own session, so the whole tree it spawns
(sweep pool workers, a multiprocessing manager) shares one process
group.  After the child has been stopped and reaped, a group that
still has members means something outlived the run: that counts as a
failure, and the stragglers are killed.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def program_env() -> dict[str, str]:
    """Environment that imports ``repro`` from this checkout's sources."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro package under {src}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(ROOT)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for name in ("REPRO_TELEMETRY", "REPRO_FULL", "REPRO_JOBS"):
        env.pop(name, None)
    return env


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def _kill_group(pgid: int) -> None:
    """SIGKILL a group whose leader is already reaped, and wait for the
    members (re-parented, so not ours to wait on) to disappear."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


class Child:
    """A child process in its own process group.

    ``stdout`` is a pipe read line by line (readiness banners);
    ``stderr`` goes to a file, so a chatty child can never block on a
    full pipe.
    """

    def __init__(self, args: list[str], label: str, stderr_path: Path) -> None:
        self.label = label
        self.stderr_path = stderr_path
        self.launched = time.perf_counter()
        with open(stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, *args],
                cwd=ROOT,
                env=program_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=err,
                text=True,
                start_new_session=True,
            )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def readline(self) -> str:
        """Next stdout line ('' at EOF)."""
        assert self.proc.stdout is not None
        return self.proc.stdout.readline()

    def finish(self, sig: int | None, timeout_s: float) -> tuple[int, str, list[str]]:
        """Optionally signal the child, then reap it and its group.

        Returns ``(exit code, stderr text, problems)``; ``problems``
        names a child that had to be killed or processes that outlived
        it.
        """
        problems: list[str] = []
        if sig is not None and self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            problems.append(f"{self.label} did not exit within {timeout_s:g} s; killed")
            self.proc.kill()
            self.proc.wait()
        if _group_alive(self.proc.pid):
            problems.append(f"processes started by {self.label} outlived it; killed")
            _kill_group(self.proc.pid)
        assert self.proc.stdout is not None
        self.proc.stdout.read()
        self.proc.stdout.close()
        stderr = self.stderr_path.read_text(encoding="utf-8", errors="replace")
        return self.proc.returncode, stderr, problems

    def kill(self) -> None:
        """Best-effort teardown on an error path."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        _kill_group(self.proc.pid)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
