"""End-to-end tour of span tracing and the profiling exporters.

Runs a traced fig11 sweep (the Figure 11 delay experiment in fast
mode), then shows the three things a trace gives you: the span
hierarchy with per-phase cost rollups, a Chrome trace-event file you
can drop into Perfetto (https://ui.perfetto.dev), and a Prometheus
text-format metrics snapshot.  Equivalent CLI:

    repro-hypercube sweep fig11 --trace trace.json --prometheus metrics.prom

Run:  PYTHONPATH=src python examples/trace_export.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.analysis.experiments import run_sweep
from repro.obs.exporters import to_prometheus, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace_spans import Tracer, phase_rollup, trace_capture


def main() -> None:
    # -- 1. capture: install a tracer for the duration of the sweep -----
    registry = MetricsRegistry()
    with trace_capture(Tracer(label="trace-export-demo")) as tracer:
        tables = run_sweep(["fig11"], fast=True, metrics=registry)

    table = tables["fig11"]
    print("== traced sweep ==")
    print(f"trace id:  {tracer.trace_id}")
    print(f"points:    {len(table.x_values)}")
    print(f"spans:     {len(tracer.spans)} recorded")

    # -- 2. phase rollup: where did the time go? ------------------------
    print("\n== span phases (count x total wall) ==")
    rollup = phase_rollup(tracer.spans)
    for name in sorted(rollup, key=lambda k: -rollup[k]["total_us"]):
        entry = rollup[name]
        print(f"{name:<18} {entry['count']:>5} span(s)  {entry['total_us'] / 1e3:9.1f} ms")

    # -- 3. Chrome trace-event export (Perfetto-loadable) ---------------
    out_dir = Path(tempfile.mkdtemp())
    trace_path = out_dir / "trace.json"
    events = write_chrome_trace(trace_path, tracer)
    print("\n== Chrome trace export ==")
    print(f"{events} event(s) written to {trace_path}")
    print("open https://ui.perfetto.dev and drop the file in to explore")

    # -- 4. Prometheus text exposition of the sweep's metrics -----------
    print("\n== Prometheus metrics (first lines) ==")
    text = to_prometheus(registry)
    for line in text.splitlines()[:6]:
        print(line)
    print(f"... {len(text.splitlines())} line(s) total")


if __name__ == "__main__":
    main()
