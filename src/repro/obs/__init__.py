"""Unified observability layer: metrics, run telemetry, channel rollups, spans.

``repro.obs`` is the one place the reproduction's measurements flow
through (docs/OBSERVABILITY.md documents schemas and metric names):

- :mod:`repro.obs.metrics` -- a :class:`MetricsRegistry` of counters,
  gauges, timers, and fixed-bucket histograms, snapshot-able to plain
  dicts;
- :mod:`repro.obs.telemetry` -- the :class:`RunRecord` JSONL envelope
  every simulation driver and experiment can emit;
- :mod:`repro.obs.sink` -- JSONL / in-memory sinks plus the
  ``REPRO_TELEMETRY`` environment toggle and ``--telemetry`` CLI flags;
- :mod:`repro.obs.rollup` -- channel-level aggregates (hotspot arcs,
  utilization histogram, per-dimension busy/blocked time) from a
  :class:`~repro.simulator.trace.ChannelTrace`;
- :mod:`repro.obs.trace_spans` -- opt-in hierarchical span tracing
  (schedule-build / verify / simulate / point-log timelines) with
  worker-snapshot replay for the parallel sweep engine;
- :mod:`repro.obs.exporters` -- Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) and Prometheus text-format exporters.

The package is dependency-free (stdlib only, no imports from the
simulator), and every integration point is opt-in: with no registry,
no sink, and no tracer configured, an instrumented code path performs
the same operations it did before this layer existed.  The event
kernel itself has no profiling hook; ``python -m cProfile`` profiles
it from the outside.

The repository benchmark is not part of the package: ``perfbench/``
(see perfbench/README.md) drives the program through its public entry
points and reads its per-layer rows off the span tracer's self times.
"""

from repro.obs.metrics import (
    CORE_METRIC_NAMES,
    Counter,
    Gauge,
    Histogram,
    METRIC_FAMILIES,
    MetricsRegistry,
    Timer,
    is_registered_metric,
    merge_snapshot,
)
from repro.obs.rollup import (
    channel_rollup,
    hotspot_arcs,
    per_dimension_blocked_time,
    per_dimension_busy_time,
    utilization_histogram,
)
from repro.obs.exporters import (
    to_chrome_trace,
    to_prometheus,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.sink import (
    JsonlSink,
    MemorySink,
    TelemetrySink,
    capture,
    configure,
    emit_event,
    get_sink,
)
from repro.obs.telemetry import KNOWN_KINDS, RunRecord, new_run_id, summarize_delays
from repro.obs.trace_spans import (
    Span,
    Tracer,
    configure_tracing,
    current_span,
    current_trace_id,
    derive_trace_id,
    get_tracer,
    instant,
    phase_rollup,
    span,
    trace_capture,
)

__all__ = [
    "CORE_METRIC_NAMES",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "KNOWN_KINDS",
    "METRIC_FAMILIES",
    "MemorySink",
    "MetricsRegistry",
    "RunRecord",
    "Span",
    "TelemetrySink",
    "Timer",
    "Tracer",
    "capture",
    "channel_rollup",
    "configure",
    "configure_tracing",
    "current_span",
    "current_trace_id",
    "derive_trace_id",
    "emit_event",
    "get_sink",
    "get_tracer",
    "hotspot_arcs",
    "instant",
    "is_registered_metric",
    "merge_snapshot",
    "new_run_id",
    "per_dimension_blocked_time",
    "per_dimension_busy_time",
    "phase_rollup",
    "span",
    "summarize_delays",
    "to_chrome_trace",
    "to_prometheus",
    "trace_capture",
    "utilization_histogram",
    "write_chrome_trace",
    "write_prometheus",
]
