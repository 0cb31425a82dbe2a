"""Structured run telemetry: the :class:`RunRecord` envelope.

Every simulated run — a single multicast, a batch of concurrent
multicasts, a collective operation, or one point of a figure
reproduction — can be exported as one :class:`RunRecord`: a flat,
JSON-serializable envelope carrying identity (run id, kind, algorithm),
machine configuration (cube size, port model, timing constants), cost
(simulated microseconds, host wall-clock seconds, event count), a
metrics snapshot, and kind-specific extras (delay summaries, figure
columns, channel rollups).

Records round-trip losslessly through JSON (``to_json`` /
``from_json``), which the test suite verifies; the JSONL sink in
:mod:`repro.obs.sink` writes one record per line.
"""

from __future__ import annotations

import datetime as _dt
import json
import uuid
from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["KNOWN_KINDS", "RunRecord", "new_run_id", "summarize_delays"]

#: The registered ``RunRecord.kind`` values.  Consumers (``stats
#: --from``, the CI telemetry checks, dashboards) switch on these
#: literals, and the ``repro.lint`` REP006 rule rejects any other
#: ``kind="..."`` literal at any call (``RunRecord``, the simulation
#: driver's ``record``, ``emit_event``) -- register new kinds here first.
KNOWN_KINDS: frozenset[str] = frozenset(
    {
        "multicast",
        "concurrent",
        "comm",
        "experiment-point",
        "degraded-multicast",
        "resilience-event",
        "fabric-event",
        "service-request",
    }
)

#: Envelope schema version; bump on incompatible field changes.
#: v2 adds the optional ``trace_id`` field so JSONL telemetry can be
#: joined against span-trace exports; the loader accepts v1 and v2.
SCHEMA_VERSION = 2

#: Schema versions :meth:`RunRecord.from_dict` accepts.  v1 records
#: simply have no ``trace_id``.
ACCEPTED_SCHEMAS = frozenset({1, 2})


def new_run_id() -> str:
    """A fresh, collision-resistant run identifier (12 hex chars)."""
    return uuid.uuid4().hex[:12]


def _utc_now_iso() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="milliseconds")


def summarize_delays(delays: Mapping[int, float]) -> dict[str, float]:
    """Compact summary of a per-destination delay map (count/min/mean/max)."""
    if not delays:
        return {"count": 0, "min_us": 0.0, "mean_us": 0.0, "max_us": 0.0}
    vals = list(delays.values())
    return {
        "count": len(vals),
        "min_us": min(vals),
        "mean_us": sum(vals) / len(vals),
        "max_us": max(vals),
    }


@dataclass(slots=True)
class RunRecord:
    """One exported run.

    Attributes:
        run_id: unique identifier (see :func:`new_run_id`).
        kind: what ran -- ``"multicast"``, ``"concurrent"``, ``"comm"``,
            ``"experiment-point"``, ``"degraded-multicast"``, or
            ``"resilience-event"``.
        n: hypercube dimension.
        algorithm: multicast algorithm / operation label, if known.
        ports: port-model name (``"all-port"`` etc.), if known.
        size: message size in bytes, if meaningful for the kind.
        timings: the cost-model constants as a plain dict, if known.
        started_at: ISO-8601 UTC wall-clock time the run started.
        wall_seconds: host wall-clock duration of the run.
        sim_time_us: final simulated clock, if a simulation ran.
        events: discrete events fired, if a simulation ran.
        metrics: a :meth:`MetricsRegistry.snapshot` (possibly empty).
        extra: kind-specific payload (delay summaries, figure columns,
            probe summaries, channel rollups, ...).
        trace_id: id of the span trace active when the run was recorded
            (see :mod:`repro.obs.trace_spans`), or ``None``; joins this
            record to its Chrome-trace export.
    """

    run_id: str
    kind: str
    n: int
    algorithm: str | None = None
    ports: str | None = None
    size: int | None = None
    timings: dict[str, float] | None = None
    started_at: str = field(default_factory=_utc_now_iso)
    wall_seconds: float = 0.0
    sim_time_us: float | None = None
    events: int | None = None
    metrics: dict[str, dict] = field(default_factory=dict)
    extra: dict[str, object] = field(default_factory=dict)
    trace_id: str | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "run_id": self.run_id,
            "kind": self.kind,
            "n": self.n,
            "algorithm": self.algorithm,
            "ports": self.ports,
            "size": self.size,
            "timings": self.timings,
            "started_at": self.started_at,
            "wall_seconds": self.wall_seconds,
            "sim_time_us": self.sim_time_us,
            "events": self.events,
            "metrics": self.metrics,
            "extra": self.extra,
            "trace_id": self.trace_id,
        }

    def to_json(self) -> str:
        """One-line JSON (JSONL-ready: no embedded newlines)."""
        return json.dumps(self.to_dict(), separators=(", ", ": "), sort_keys=False)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunRecord":
        """Inverse of :meth:`to_dict`; ``ValueError`` for anything that
        is not a RunRecord (the CLI's "corrupt telemetry" exit 2)."""
        if not isinstance(data, Mapping):
            raise ValueError(f"RunRecord must be a JSON object, got {type(data).__name__}")
        schema = data.get("schema", SCHEMA_VERSION)
        if schema not in ACCEPTED_SCHEMAS:
            raise ValueError(f"unsupported RunRecord schema {schema!r}")
        for key in ("run_id", "kind", "n"):
            if key not in data:
                raise ValueError(f"RunRecord missing required field {key!r}")
        try:
            n = int(data["n"])  # type: ignore[call-overload]
            wall_seconds = float(data.get("wall_seconds", 0.0))  # type: ignore[arg-type]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"RunRecord 'n' and 'wall_seconds' must be numbers: {exc}") from None
        for keys, types, what in (
            (("events", "size", "sim_time_us"), (int, float), "a number"),
            (("trace_id", "algorithm", "ports"), str, "a string"),
            (("timings", "metrics", "extra"), Mapping, "an object"),
        ):
            for key in keys:
                value = data.get(key)
                if value is not None and (isinstance(value, bool) or not isinstance(value, types)):
                    raise ValueError(f"RunRecord field {key!r} must be {what} or null")
        return cls(
            run_id=str(data["run_id"]),
            kind=str(data["kind"]),
            n=n,
            algorithm=data.get("algorithm"),  # type: ignore[arg-type]
            ports=data.get("ports"),  # type: ignore[arg-type]
            size=data.get("size"),  # type: ignore[arg-type]
            timings=data.get("timings"),  # type: ignore[arg-type]
            started_at=str(data.get("started_at", "")),
            wall_seconds=wall_seconds,
            sim_time_us=data.get("sim_time_us"),  # type: ignore[arg-type]
            events=data.get("events"),  # type: ignore[arg-type]
            metrics=dict(data.get("metrics") or {}),  # type: ignore[arg-type]
            extra=dict(data.get("extra") or {}),  # type: ignore[arg-type]
            trace_id=data.get("trace_id"),  # type: ignore[arg-type]
        )

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))
