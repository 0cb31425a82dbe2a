"""Sweep point log: every computed sweep point, by content address.

Inside a :func:`~repro.parallel.engine.sweep_context` the engine serves
every point it has already seen -- earlier in the same sweep, or in the
log an earlier sweep left under the same ``cache_dir`` -- and computes
only the rest.  A point is addressed by its **point fingerprint**
(:func:`point_fingerprint`): a SHA-256 over the point function's
identity, the canonical encoding of its spec, :data:`JOURNAL_SCHEMA`
and :data:`~repro.parallel.cache.CACHE_SCHEMA`.  Point functions are
pure functions of their spec, so any intact record of a fingerprint is
the right result for it: there are no run ids and no resume flag, and
a re-run with the same ``cache_dir`` picks up whatever a finished,
crashed or killed sweep left there.

The log is ``<cache_dir>/points.jsonl`` (:data:`POINT_LOG`), one JSON
line per point: ``{"schema", "fp", "result", "sum"}``, where ``sum`` is
a checksum over the fingerprint and the result.

- **Atomic, durable appends.**  A line goes out in a single
  ``os.write`` on an ``O_APPEND`` descriptor and is ``fsync``'d before
  :meth:`SweepJournal.append` returns, so two sweeps sharing a
  directory interleave whole lines, and a killed sweep loses at most
  the line in flight.
- **Self-healing loads.**  A torn, unparseable, checksum-failing or
  stale-schema line is skipped and counted, never fatal: its point
  simply recomputes.  A torn final line is sealed with a newline when
  the log is opened, so no record is spliced onto the stump.
- **JSON results only.**  A result that does not serialize is
  remembered for the rest of the sweep but never logged.  ``json``
  round-trips ``int`` and ``float`` exactly, which is what makes a
  point served from the log bit-identical to a computed one.

The sweep's coordinator is the log's only writer: workers ship their
results home, and the engine appends each one as it absorbs it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from enum import Enum
from pathlib import Path
from typing import Callable

from repro.obs import trace_spans
from repro.parallel import cache as _cache

__all__ = [
    "JOURNAL_SCHEMA",
    "JournalLoad",
    "POINT_LOG",
    "SweepJournal",
    "load_journal",
    "point_fingerprint",
]

#: Bump when the log's record format changes; old lines then count as
#: damaged and recompute rather than being misread.
JOURNAL_SCHEMA = 1

#: File name of the point log inside a sweep's ``cache_dir``.
POINT_LOG = "points.jsonl"

#: Sentinel distinguishing "not stored" from a stored ``None``.
_MISS = object()


def _canonical(obj: object) -> object:
    """A JSON-safe canonical form of a point spec component.

    Handles the primitives, containers, enums, and (frozen) dataclasses
    that point specs are built from; anything else is rejected so a
    fingerprint can never silently depend on an unstable ``repr``.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_canonical(item) for item in obj)  # type: ignore[type-var]
    if isinstance(obj, dict):
        return {str(key): _canonical(value) for key, value in sorted(obj.items())}
    if isinstance(obj, Enum):
        return [type(obj).__name__, obj.name]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
        return [type(obj).__name__, fields]
    raise TypeError(
        f"cannot fingerprint spec component {obj!r} of type {type(obj).__name__}"
    )


def _digest(payload: object) -> str:
    return hashlib.sha256(_cache.canonical_json(payload)).hexdigest()


def point_fingerprint(fn: Callable, spec: object) -> str:
    """SHA-256 fingerprint of one sweep point: *which function* over
    *which spec*.

    Stable across processes, platforms, and Python versions; moving or
    renaming the point function, or bumping either schema, deliberately
    orphans its stored results (they may have changed meaning).
    """
    identity = [
        getattr(fn, "__module__", ""),
        getattr(fn, "__qualname__", repr(fn)),
    ]
    return _digest(
        {
            "schema": JOURNAL_SCHEMA,
            "cache": _cache.CACHE_SCHEMA,
            "fn": identity,
            "spec": _canonical(spec),
        }
    )


def _record_checksum(fingerprint: str, result: object) -> str:
    return _digest({"schema": JOURNAL_SCHEMA, "fp": fingerprint, "result": result})[:16]


@dataclasses.dataclass(slots=True)
class JournalLoad:
    """Outcome of reading a point log back."""

    results: dict[str, object]
    records: int = 0
    corrupt: int = 0


def load_journal(path: str | os.PathLike) -> JournalLoad:
    """Read a point log, skipping (and counting) damaged lines.

    Never raises on damaged content: unparseable lines, checksum
    mismatches, and stale schemas are counted in ``corrupt``.  A
    missing file is an empty load.
    """
    with trace_spans.span("journal.load", path=str(path)) as sp:
        state = _load_journal(path)
        if sp is not None:
            sp.set(records=state.records, corrupt=state.corrupt)
        return state


def _load_journal(path: str | os.PathLike) -> JournalLoad:
    state = JournalLoad(results={})
    try:
        data = Path(path).read_bytes()
    except OSError:
        return state
    for line in data.splitlines():
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except ValueError:  # includes a line torn inside a UTF-8 sequence
            state.corrupt += 1
            continue
        if not isinstance(payload, dict) or payload.get("schema") != JOURNAL_SCHEMA:
            state.corrupt += 1
            continue
        fingerprint = payload.get("fp")
        checksum = payload.get("sum")
        if not isinstance(fingerprint, str) or not isinstance(checksum, str):
            state.corrupt += 1
            continue
        result = payload.get("result")
        if _record_checksum(fingerprint, result) != checksum:
            state.corrupt += 1
            continue
        state.results[fingerprint] = result
        state.records += 1
    return state


class SweepJournal:
    """The point store of one sweep context.

    It remembers every point stored in it, by fingerprint.  With a
    ``path`` it also reads that log once, at construction, serving its
    intact records, and appends every JSON-serializable point stored
    afterwards.  One instance lives in the sweep's parent process;
    workers never touch it.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.resumed_records = 0
        self.corrupt_records = 0
        self.appended = 0
        self.skipped_appends = 0
        self._seen: dict[str, object] = {}
        self._logged: frozenset[str] = frozenset()
        self._fd: int | None = None
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        load = load_journal(self.path)
        self._seen = load.results
        self._logged = frozenset(load.results)
        self.resumed_records = load.records
        self.corrupt_records = load.corrupt
        self._fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        # a torn final line (killed mid-write) has no trailing newline;
        # appending straight after it would splice the next record onto
        # the stump and destroy both.  Seal the tear first.
        size = os.fstat(self._fd).st_size
        if size and os.pread(self._fd, 1, size - 1) != b"\n":
            os.write(self._fd, b"\n")

    def append(self, fingerprint: str, result: object) -> bool:
        """Store one computed point and, with a log, durably append it.

        Returns whether a line was written: ``False`` without a log, and
        for a result that is not JSON-serializable (it is served for the
        rest of the sweep and recomputes in the next one).
        """
        self._seen[fingerprint] = result
        if self._fd is None:
            return False
        try:
            payload = {
                "schema": JOURNAL_SCHEMA,
                "fp": fingerprint,
                "result": result,
                "sum": _record_checksum(fingerprint, result),
            }
            line = json.dumps(payload, separators=(",", ":")) + "\n"
        except (TypeError, ValueError):
            self.skipped_appends += 1
            return False
        with trace_spans.span("journal.append", fp=fingerprint[:12]):
            os.write(self._fd, line.encode())
            os.fsync(self._fd)
        self.appended += 1
        return True

    def lookup(self, fingerprint: str | None) -> object:
        """The stored result, or the module-private miss sentinel (always
        for ``None``, the fingerprint of a point that is never stored)."""
        return self._seen.get(fingerprint, _MISS)

    @staticmethod
    def is_miss(value: object) -> bool:
        return value is _MISS

    def from_log(self, fingerprint: str) -> bool:
        """Whether the point's result was read from the log at entry."""
        return fingerprint in self._logged

    def __len__(self) -> int:
        return len(self._seen)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
