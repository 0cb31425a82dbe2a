"""Smoke tests: every example script runs and prints its conclusions."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES / name
    assert path.exists(), f"missing example {name}"
    saved = sys.argv
    try:
        sys.argv = [str(path)]
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = saved
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "wsort" in out and "ucube" in out
    assert "contention-free" in out
    assert "2 steps" in out or "steps: 2" in out


@pytest.mark.slow
def test_broadcast_scaling(capsys):
    out = run_example("broadcast_scaling.py", capsys)
    assert "1024" in out  # reaches the 10-cube row
    assert "average delay" in out


def test_data_redistribution(capsys):
    out = run_example("data_redistribution.py", capsys)
    assert "scatter rows" in out
    assert "TOTAL" in out


def test_custom_algorithm(capsys):
    out = run_example("custom_algorithm.py", capsys)
    assert "greedy-chain" in out
    assert "wsort" in out


def test_collective_survey(capsys):
    out = run_example("collective_survey.py", capsys)
    assert "alltoall" in out and "barrier" in out
    assert "256" in out  # reaches the 8-cube row


def test_optimal_broadcast(capsys):
    out = run_example("optimal_broadcast.py", capsys)
    assert "nESBT" in out


@pytest.mark.slow
def test_parallel_sweep(capsys):
    out = run_example("parallel_sweep.py", capsys)
    assert "bit-identity: serial == parallel cold == parallel warm  OK" in out
    assert "20 of 20 points served from the log, 0 computed" in out
    assert "wsort" in out  # the rendered fig11 table


def test_resilient_sweep(capsys):
    out = run_example("resilient_sweep.py", capsys)
    assert "10 points checkpointed" in out
    assert "4 points served from the log, the torn record recomputed -- table identical  OK" in out
    assert "the forged record skipped and recomputed -- table identical  OK" in out
    assert "(9 of 10 points served)" in out
    assert "watchdog:" in out


def test_deadlock_demo(capsys):
    out = run_example("deadlock_demo.py", capsys)
    assert "deadlock-free: True" in out
    assert "circular wait" in out


def test_telemetry_export(capsys):
    out = run_example("telemetry_export.py", capsys)
    assert "aggregated metrics" in out
    assert "telemetry records" in out
    assert "experiment" not in out  # records come from drivers, not figures
    assert "hotspot arcs" in out
    assert "none (contention-free)" in out


def test_trace_export(capsys):
    out = run_example("trace_export.py", capsys)
    assert "trace id:" in out
    assert "span phases" in out
    assert "schedule.build" in out and "simulate" in out
    assert "event(s) written to" in out
    assert "perfetto" in out.lower()
    assert "# TYPE repro_" in out
    # tracing must not leak past the example
    from repro.obs.trace_spans import get_tracer

    assert get_tracer() is None


def test_fault_injection(capsys):
    out = run_example("fault_injection.py", capsys)
    assert "aborted worms: 2" in out
    assert "fault-aware" in out
    assert "delivery ratio 1.000" in out
    assert "delivery ratio 0.875" in out  # the dead-router case
    assert "verification ok: True" in out
    assert "bit-identical to simulate_multicast: True" in out
    # the example must leave the global registry as it found it
    from repro.multicast.registry import ALGORITHMS

    assert "fault-wsort" not in ALGORITHMS


def test_stencil_exchange(capsys):
    out = run_example("stencil_exchange.py", capsys)
    assert "Gray-code embedding" in out
    assert "row-major placement" in out
    # the embedding run must show zero blocking
    gray_line = next(ln for ln in out.splitlines() if "Gray-code" in ln)
    assert "blocking        0 us" in gray_line


def test_service_load(capsys):
    out = run_example("service_load.py", capsys)
    assert "service up at http://" in out
    assert "max step" in out
    assert "req/s" in out and "p99" in out
    assert "hit ratio" in out
    assert "per-client usage (/v1/usage)" in out
    assert "example-load" in out
    assert "service drained cleanly" in out
