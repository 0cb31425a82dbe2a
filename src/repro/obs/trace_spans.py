"""Hierarchical span tracing for schedule/verify/simulate timelines.

A :class:`Tracer` records a tree of timed spans — schedule-build, greedy
step assignment, Definition-4 verification, simulator runs, point-log
I/O — with monotonic timing and per-span metric attributes.  The
module-level :func:`span` context manager is the instrumentation hook
used throughout the codebase: it is a cheap no-op unless a tracer has
been installed with :func:`configure_tracing` (mirroring the telemetry
sink in :mod:`repro.obs.sink`), so tracing is strictly opt-in and the
instrumented hot paths produce byte-identical outputs when it is off.

Span and trace ids follow the repo's deterministic-id discipline: both
are SHA-256 digests over a canonical ``|``-joined encoding (the same
scheme as ``repro.parallel.seeds.derive_seed``), truncated to 16 hex
characters.  Worker processes run their own tracer and ship a JSON-safe
snapshot back to the parent, which replays it with
:meth:`Tracer.replay` — re-anchoring the worker's wall-clock epoch and
re-parenting its root spans under the dispatching span, exactly the way
``MemorySink`` telemetry is already absorbed.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

__all__ = [
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "configure_tracing",
    "current_span",
    "current_trace_id",
    "derive_trace_id",
    "get_tracer",
    "instant",
    "phase_rollup",
    "span",
    "trace_capture",
]

TRACE_SCHEMA = 1

_ID_HEX = 16  # 64 bits of SHA-256, same truncation as the schedule cache keys


def _encode(value: Any) -> str:
    """Canonical text encoding, matching ``repro.parallel.seeds``."""
    if isinstance(value, bool):
        return f"b:{int(value)}"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        return f"f:{value.hex()}"
    if isinstance(value, str):
        return f"s:{value}"
    if isinstance(value, (tuple, list)):
        return "l:[" + ",".join(_encode(v) for v in value) + "]"
    if value is None:
        return "n:"
    raise TypeError(f"cannot canonically encode {type(value).__name__}")


def derive_trace_id(*components: Any) -> str:
    """Deterministic trace id from arbitrary components (SHA-256)."""
    payload = "|".join(_encode(c) for c in components)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:_ID_HEX]


@dataclass(slots=True)
class Span:
    """One timed node in a trace tree.

    ``start_us``/``end_us`` are microsecond offsets from the owning
    tracer's epoch; ``end_us`` is ``None`` while the span is open (a
    snapshot taken then marks it partial — a worker that died mid-span
    still yields a well-formed trace).
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start_us: float
    end_us: float | None = None
    pid: int = 0
    tid: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end_us is not None

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    def set(self, **attrs: Any) -> None:
        """Attach metric attributes (JSON-safe values) to the span."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


class Tracer:
    """Thread-safe collector of hierarchical spans.

    Nesting is tracked per thread: a span opened while another is active
    on the same thread becomes its child.  Span ids are derived from the
    trace id, the parent id, the span name, and a per-tracer sequence
    counter, so two runs of the same traced workload produce the same
    id *structure* (timing attributes still differ, of course).
    """

    def __init__(self, trace_id: str | None = None, label: str = "trace") -> None:
        if trace_id is None:
            trace_id = derive_trace_id(label, os.getpid(), time.time_ns())
        self.trace_id = trace_id
        self.label = label
        # the wall-clock anchor exists so exported traces can be joined
        # to external logs; all span *durations* come from perf_counter
        self.epoch_unix = time.time()  # repro: lint-ok[REP002] display-only trace epoch
        self._epoch_perf = time.perf_counter()
        self._lock = threading.Lock()
        self._seq = 0
        self._local = threading.local()
        self.spans: list[Span] = []

    # -- timing ---------------------------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch_perf) * 1e6

    # -- span lifecycle -------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_id(self, parent_id: str | None, name: str) -> str:
        with self._lock:
            self._seq += 1
            seq = self._seq
        return derive_trace_id(self.trace_id, parent_id, name, seq)

    def start_span(self, name: str, attrs: Mapping[str, Any] | None = None) -> Span:
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        s = Span(
            trace_id=self.trace_id,
            span_id=self._next_id(parent_id, name),
            parent_id=parent_id,
            name=name,
            start_us=self._now_us(),
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=dict(attrs) if attrs else {},
        )
        with self._lock:
            self.spans.append(s)
        stack.append(s)
        return s

    def end_span(self, s: Span) -> None:
        if s.end_us is None:
            s.end_us = self._now_us()
        stack = self._stack()
        if s in stack:  # tolerate exits out of order (crashed children)
            while stack and stack[-1] is not s:
                stack.pop()
            if stack:
                stack.pop()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        s = self.start_span(name, attrs)
        try:
            yield s
        except BaseException as exc:
            s.attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            self.end_span(s)

    def instant(self, name: str, **attrs: Any) -> Span:
        """Record a zero-duration event (watchdog kill, retry, resume)."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        now = self._now_us()
        s = Span(
            trace_id=self.trace_id,
            span_id=self._next_id(parent_id, name),
            parent_id=parent_id,
            name=name,
            start_us=now,
            end_us=now,
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=dict(attrs),
        )
        with self._lock:
            self.spans.append(s)
        return s

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- snapshot / replay ---------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe dump for shipping across a process boundary.

        Open spans are included with ``end_us: None`` and marked
        ``partial`` — the parent must be able to replay a trace from a
        worker that died mid-span.
        """
        with self._lock:
            spans = list(self.spans)
        dumped = []
        for s in spans:
            d = s.to_dict()
            if s.end_us is None:
                d["partial"] = True
            dumped.append(d)
        return {
            "schema": TRACE_SCHEMA,
            "trace_id": self.trace_id,
            "epoch_unix": self.epoch_unix,
            "spans": dumped,
        }

    def replay(self, snapshot: Mapping[str, Any], parent_id: str | None = None) -> int:
        """Fold a worker snapshot into this trace.

        Timestamps are re-anchored via the wall-clock epoch delta, ids
        are kept (they embed the worker pid-independent sequence but are
        already unique per worker tracer seeded with the parent's trace
        id), root spans are re-parented under ``parent_id``, and
        malformed entries are dropped rather than raised — a crashed
        chunk must never corrupt the parent trace.  Returns the number
        of spans replayed.
        """
        try:
            worker_epoch = float(snapshot["epoch_unix"])
            raw = snapshot["spans"]
        except (KeyError, TypeError, ValueError):
            return 0
        offset_us = (worker_epoch - self.epoch_unix) * 1e6
        local_ids = set()
        for d in raw:
            if isinstance(d, Mapping) and isinstance(d.get("span_id"), str):
                local_ids.add(d["span_id"])
        replayed = 0
        for d in raw:
            if not isinstance(d, Mapping):
                continue
            try:
                span_id = d["span_id"]
                name = d["name"]
                start = float(d["start_us"]) + offset_us
            except (KeyError, TypeError, ValueError):
                continue
            if not isinstance(span_id, str) or not isinstance(name, str):
                continue
            raw_end = d.get("end_us")
            end: float | None
            try:
                end = None if raw_end is None else float(raw_end) + offset_us
            except (TypeError, ValueError):
                end = None
            parent = d.get("parent_id")
            if not isinstance(parent, str) or parent not in local_ids:
                parent = parent_id
            attrs = d.get("attrs")
            attrs = dict(attrs) if isinstance(attrs, Mapping) else {}
            if d.get("partial"):
                attrs.setdefault("partial", True)
            s = Span(
                trace_id=self.trace_id,
                span_id=span_id,
                parent_id=parent,
                name=name,
                start_us=start,
                end_us=end,
                pid=int(d.get("pid", 0) or 0),
                tid=int(d.get("tid", 0) or 0),
                attrs=attrs,
            )
            with self._lock:
                self.spans.append(s)
            replayed += 1
        return replayed


def phase_rollup(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Aggregate spans by name: count and total self-reported duration."""
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"count": 0, "total_us": 0.0})
        agg["count"] += 1
        agg["total_us"] += s.duration_us
    return out


# -- module-level installation (mirrors repro.obs.sink) -----------------

_tracer: Tracer | None = None


def configure_tracing(tracer: Tracer | None) -> Tracer | None:
    """Install (or clear) the active tracer; returns the previous one."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


def get_tracer() -> Tracer | None:
    return _tracer


def current_trace_id() -> str | None:
    """Trace id of the active tracer, for stamping RunRecords."""
    t = _tracer
    return t.trace_id if t is not None else None


def current_span() -> Span | None:
    t = _tracer
    return t.current() if t is not None else None


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Span | None]:
    """Record a span on the active tracer; no-op (yields None) when off."""
    t = _tracer
    if t is None:
        yield None
        return
    with t.span(name, **attrs) as s:
        yield s


def instant(name: str, **attrs: Any) -> Span | None:
    t = _tracer
    if t is None:
        return None
    return t.instant(name, **attrs)


@contextmanager
def trace_capture(
    tracer: Tracer | None = None, label: str = "trace"
) -> Iterator[Tracer]:
    """Install a tracer for the duration of a block and hand it back."""
    target = tracer if tracer is not None else Tracer(label=label)
    previous = configure_tracing(target)
    try:
        yield target
    finally:
        configure_tracing(previous)
