"""Telemetry sinks and the process-wide export toggle.

A sink consumes :class:`~repro.obs.telemetry.RunRecord` objects.  The
simulation drivers ask :func:`get_sink` before building a record, so an
un-instrumented run pays one dict lookup and nothing else.

Resolution order:

1. an explicit override installed with :func:`configure` (what the CLI
   ``--telemetry`` flags and the :func:`capture` context manager use);
2. the ``REPRO_TELEMETRY`` environment variable, interpreted as a JSONL
   output path (re-read on every call so tests and long-lived processes
   can toggle it);
3. nothing -- telemetry disabled.
"""

from __future__ import annotations

import gzip
import json
import os
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Protocol

from repro.obs import trace_spans
from repro.obs.telemetry import RunRecord, new_run_id

__all__ = [
    "ENV_VAR",
    "JsonlSink",
    "MemorySink",
    "RotatingJsonlSink",
    "TelemetrySink",
    "capture",
    "configure",
    "emit",
    "emit_event",
    "get_sink",
    "read_jsonl",
]

#: Environment variable naming a JSONL path to export run telemetry to.
ENV_VAR = "REPRO_TELEMETRY"


class TelemetrySink(Protocol):
    """Anything that can consume run records."""

    def write(self, record: RunRecord) -> None: ...


class JsonlSink:
    """Appends one JSON line per record to a file.

    The file is opened per write (append mode), so concurrent processes
    sharing a path interleave whole lines rather than corrupting each
    other, and a crashed run loses nothing already written.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.written = 0

    def write(self, record: RunRecord) -> None:
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(record.to_json() + "\n")
        self.written += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JsonlSink({self.path!r}, written={self.written})"


class RotatingJsonlSink:
    """A :class:`JsonlSink` that rotates and gzips bulk telemetry.

    High-volume producers (the service load generator emits one
    record per request) would otherwise grow one JSONL file
    without bound.  When the active file exceeds ``max_bytes`` after a
    write, it is rotated to ``<path>.<k>.gz`` (``k`` counting up from
    1, gzip-compressed) and a fresh active file is started.  Every
    segment -- rotated or active -- loads with :func:`read_jsonl`.
    """

    def __init__(self, path: str, max_bytes: int = 32 * 1024 * 1024) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.path = path
        self.max_bytes = max_bytes
        self.written = 0
        self.rotations = 0

    def _next_segment(self) -> Path:
        k = 1
        while True:
            candidate = Path(f"{self.path}.{k}.gz")
            if not candidate.exists():
                return candidate
            k += 1

    def rotate(self) -> Path | None:
        """Compress the active file into the next ``.gz`` segment."""
        active = Path(self.path)
        try:
            data = active.read_bytes()
        except OSError:
            return None
        segment = self._next_segment()
        with gzip.open(segment, "wb") as gz:
            gz.write(data)
        active.unlink()
        self.rotations += 1
        return segment

    def write(self, record: RunRecord) -> None:
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(record.to_json() + "\n")
            size = f.tell()
        self.written += 1
        if size > self.max_bytes:
            self.rotate()

    def segments(self) -> list[Path]:
        """Every telemetry file this sink has produced, oldest first."""
        out = sorted(
            Path(self.path).parent.glob(Path(self.path).name + ".*.gz"),
            key=lambda p: int(p.suffixes[-2].lstrip(".")),
        )
        if Path(self.path).exists():
            out.append(Path(self.path))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RotatingJsonlSink({self.path!r}, written={self.written}, "
            f"rotations={self.rotations})"
        )


class MemorySink:
    """Collects records in a list (tests, in-process analysis)."""

    def __init__(self) -> None:
        self.records: list[RunRecord] = []

    def write(self, record: RunRecord) -> None:
        self.records.append(record)


#: gzip magic bytes; rotated telemetry segments are detected by content,
#: not just the ``.gz`` suffix, so renamed artifacts still load.
_GZIP_MAGIC = b"\x1f\x8b"


def _is_gzip(path: str | os.PathLike) -> bool:
    with open(path, "rb") as f:
        return f.read(2) == _GZIP_MAGIC


def read_jsonl(path: str | os.PathLike) -> list[RunRecord]:
    """Parse a JSONL telemetry file back into records.

    Accepts plain text and gzip-compressed files (what
    :class:`RotatingJsonlSink` produces for rotated segments; loadgen
    runs gzip their bulk telemetry).  Raises ``OSError`` for
    an unreadable file and ``ValueError`` for corrupt content --
    including a truncated or damaged gzip stream -- which is what the
    CLI's exit-code contract distinguishes on.
    """
    records: list[RunRecord] = []
    opener = gzip.open if _is_gzip(path) else open
    with opener(path, "rt", encoding="utf-8") as f:  # type: ignore[operator]
        try:
            lines = f.readlines()
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise ValueError(f"truncated or corrupt gzip stream: {exc}") from exc
    for line in lines:
        line = line.strip()
        if line:
            records.append(RunRecord.from_dict(json.loads(line)))
    return records


_override: TelemetrySink | None = None
#: JsonlSink cache for the env-var path, keyed by path so that changing
#: REPRO_TELEMETRY mid-process starts a fresh sink.
_env_sinks: dict[str, JsonlSink] = {}


def configure(sink: TelemetrySink | str | None) -> TelemetrySink | None:
    """Install (or, with ``None``, clear) the explicit telemetry sink.

    A string argument is shorthand for ``JsonlSink(path)``.  Clearing
    the override falls back to the ``REPRO_TELEMETRY`` environment
    variable.  Returns the previous override so callers can restore it.
    """
    global _override
    previous = _override
    _override = JsonlSink(sink) if isinstance(sink, str) else sink
    return previous


def get_sink() -> TelemetrySink | None:
    """The active sink, or None when telemetry is disabled."""
    if _override is not None:
        return _override
    path = os.environ.get(ENV_VAR)
    if not path:
        return None
    sink = _env_sinks.get(path)
    if sink is None:
        _env_sinks.clear()
        sink = _env_sinks[path] = JsonlSink(path)
    return sink


def emit(record: RunRecord) -> None:
    """Write ``record`` to the active sink, if any."""
    sink = get_sink()
    if sink is not None:
        sink.write(record)


def emit_event(event: str, *, kind: str, **details: object) -> None:
    """Emit one operational event: a ``kind`` record to the active sink
    and, while a tracer is installed, a zero-duration instant span.

    ``event`` names what happened (``"point-quarantined"``,
    ``"host-lost"``, ...) and becomes the record's ``algorithm`` and
    ``extra["event"]``; ``details`` is the free-form payload.  The
    instant is named ``<prefix>.<event>``, the prefix being ``kind``
    without its ``-event`` suffix (``resilience-event`` ->
    ``resilience.point-quarantined``), so watchdog kills, failovers,
    and resumes show up on the traced sweep timeline.  No-op when
    neither a sink nor a tracer is active.
    """
    if trace_spans.get_tracer() is not None:
        attrs = {
            k: v if isinstance(v, (bool, int, float, str, type(None))) else str(v)
            for k, v in details.items()
        }
        trace_spans.instant(f"{kind.removesuffix('-event')}.{event}", **attrs)
    sink = get_sink()
    if sink is None:
        return
    sink.write(
        RunRecord(
            run_id=new_run_id(),
            kind=kind,
            n=0,
            algorithm=event,
            extra={"event": event, **details},
            trace_id=trace_spans.current_trace_id(),
        )
    )


@contextmanager
def capture(sink: TelemetrySink | str | None = None) -> Iterator[TelemetrySink]:
    """Temporarily install a sink (default: a fresh :class:`MemorySink`).

    Example::

        with capture() as sink:
            simulate_multicast(tree)
        assert sink.records[0].kind == "multicast"
    """
    target: TelemetrySink = (
        MemorySink() if sink is None else JsonlSink(sink) if isinstance(sink, str) else sink
    )
    previous = configure(target)
    try:
        yield target
    finally:
        configure(previous)
