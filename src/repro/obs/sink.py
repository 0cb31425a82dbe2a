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

import json
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Protocol

from repro.obs import trace_spans
from repro.obs.telemetry import RunRecord, new_run_id

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ENV_VAR",
    "JsonlSink",
    "MemorySink",
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


class MemorySink:
    """Collects records in a list (tests, in-process analysis)."""

    def __init__(self) -> None:
        self.records: list[RunRecord] = []

    def write(self, record: RunRecord) -> None:
        self.records.append(record)


def read_jsonl(path: str | os.PathLike) -> list[RunRecord]:
    """Parse a JSONL telemetry file back into records.

    Raises ``OSError`` for an unreadable file and ``ValueError`` for
    corrupt content -- including bytes that are not UTF-8 text, such
    as a compressed file -- which is what the CLI's exit-code contract
    distinguishes on.
    """
    records: list[RunRecord] = []
    with open(path, encoding="utf-8") as f:
        for line in f:
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


def emit_event(
    event: str,
    *,
    kind: str,
    counter: str | None = None,
    amount: float = 1.0,
    metrics: MetricsRegistry | None = None,
    **details: object,
) -> None:
    """Emit one operational event: ``amount`` on its ``counter`` in
    ``metrics``, a ``kind`` record to the active sink and, while a
    tracer is installed, a zero-duration instant span.

    ``event`` names what happened (``"pool-degraded"``,
    ``"host-lost"``, ...) and becomes the record's ``algorithm`` and
    ``extra["event"]``; ``details`` is the free-form payload.  The
    instant is named ``<prefix>.<event>``, the prefix being ``kind``
    without its ``-event`` suffix (``resilience-event`` ->
    ``resilience.pool-degraded``), so watchdog kills, failovers,
    and resumes show up on the traced sweep timeline.  The counter
    counts whenever ``metrics`` is given; the record and the instant
    are no-ops when neither a sink nor a tracer is active.
    """
    if counter is not None and metrics is not None:
        metrics.counter(counter).inc(amount)
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
