"""The traced half of the ``figures`` workload (runs in the sweep child).

The sweep runs once untraced (the reference for the tracing overhead)
and once under a :class:`repro.obs.trace_spans.Tracer`, which makes the
program emit its own spans -- ``point.*``, ``schedule.build``,
``schedule.greedy``, ``simulate``, ``simulate.concurrent``,
``verify.delivery``, ``cache.disk_*`` and the worker chunks shipped
home under ``parallel.dispatch``.  The fault driver
(``simulate_degraded_multicast``) emits no span, so its calls are
replayed afterwards on the sweep's own inputs under the benchmark's
``simulate.faults`` span, and the replay is checked against the
sweep's fault table.
"""

from __future__ import annotations

from pathlib import Path
from statistics import mean

from perfbench import traced

#: The inputs of the fault sweep's fast mode (repro.analysis.experiments).
FAULT_KS = (0, 1, 2, 3)
FAULT_N, FAULT_M, FAULT_SETS = 6, 16, 4


def replay_fault_driver(tracer, table, problems: list[str]) -> None:
    """Re-run every fault-driver call of the sweep under a span."""
    from repro.analysis.workloads import random_destination_sets
    from repro.faults import (
        DegradedHypercube,
        FaultScenario,
        repair_multicast,
        simulate_degraded_multicast,
    )
    from repro.multicast.registry import PAPER_ALGORITHMS, get_algorithm

    def run(tree, scenario, **kwargs):
        with tracer.span("simulate.faults", n=tree.n) as sp:
            res = simulate_degraded_multicast(tree, scenario, **kwargs)
            sp.set(events=res.events)
        return res

    for ki, k in enumerate(FAULT_KS):
        scenario = (
            FaultScenario.random_links(FAULT_N, k, seed=9300 + k) if k else FaultScenario(FAULT_N)
        )
        degraded = DegradedHypercube(FAULT_N, scenario)
        dest_sets = random_destination_sets(FAULT_N, FAULT_M, FAULT_SETS, seed=9400 + k)
        for name in PAPER_ALGORITHMS:
            plain, repaired = [], []
            for dests in dest_sets:
                tree = get_algorithm(name).build_tree(FAULT_N, 0, dests)
                plain.append(run(tree, scenario, label=f"faults/{name}/links{k}").avg_delay)
                report = repair_multicast(name, degraded, FAULT_N, 0, dests)
                repaired.append(run(
                    report.tree, scenario, label=f"faults/fault-{name}/links{k}",
                    unreachable_hint=report.unreachable,
                ).avg_delay)
            if (mean(plain), mean(repaired)) != (
                table.columns[name][ki], table.columns[f"fault-{name}"][ki]
            ):
                problems.append(f"fault replay k={k} {name} does not match the sweep's table")


def traced_sweep(sweep, untraced_wall: float, jobs: int, trace_path: Path,
                 problems: list[str]) -> dict[str, float]:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace_spans import Tracer, trace_capture

    registry = MetricsRegistry()
    tracer = Tracer(label="figures")
    with trace_capture(tracer):
        traced_wall, tables = sweep(registry)
    # outside the capture: only the benchmark's own spans are recorded
    replay_fault_driver(tracer, tables["faults-delay"], problems)
    spans = traced.span_dicts([tracer])
    traced.write_trace(trace_path, spans)
    return traced.assemble(
        traced.kernel_layers(spans),
        traced.engine_layers(registry.snapshot(), spans, jobs),
        {"obs.trace_overhead_ratio": traced_wall / untraced_wall},
    )
