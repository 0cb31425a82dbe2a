"""One experiment definition per paper figure, plus ablations.

Each experiment regenerates the series behind one figure of Section 5
(see the experiment index in DESIGN.md) and returns a
:class:`~repro.analysis.tables.Table` whose columns are the figure's
curves.  ``fast=True`` (the default unless the ``REPRO_FULL``
environment variable is set) thins the sweep so the whole harness runs
in minutes; the full paper-parity parameters are used when
``fast=False``.  Both are deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from statistics import mean
from time import perf_counter
from typing import Callable, Sequence

from repro.obs import sink as _telemetry_sink
from repro.obs import trace_spans
from repro.obs.telemetry import RunRecord, new_run_id

from repro.analysis.delay import delay_experiment
from repro.analysis.steps import stepwise_experiment
from repro.analysis.tables import Table, linear_grid
from repro.analysis.workloads import random_destination_sets
from repro.core.paths import ResolutionOrder
from repro.multicast.ports import ALL_PORT, ONE_PORT, k_port
from repro.multicast.registry import PAPER_ALGORITHMS, get_algorithm
from repro.obs.metrics import MetricsRegistry
from repro.parallel.engine import run_points, sweep_context
from repro.parallel.fabric import FabricConfig
from repro.parallel.resilience import WatchdogConfig
from repro.simulator.params import NCUBE2
from repro.simulator.run import simulate_multicast

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "run_experiment",
    "run_sweep",
]


def default_fast() -> bool:
    """Fast mode unless REPRO_FULL is set to a truthy value."""
    return os.environ.get("REPRO_FULL", "") in ("", "0", "false", "no")


@dataclass(frozen=True, slots=True)
class Experiment:
    """A named, runnable reproduction of one figure."""

    id: str
    title: str
    description: str
    runner: Callable[[bool], Table]

    def run(self, fast: bool | None = None) -> Table:
        if fast is None:
            fast = default_fast()
        return self.runner(fast)


# ---------------------------------------------------------------------------
# Figures 9-10: stepwise comparisons
# ---------------------------------------------------------------------------


def _fig9(fast: bool) -> Table:
    m_values = [1] + linear_grid(2, 63, 2 if not fast else 4)
    sets = 100 if not fast else 40
    res = stepwise_experiment(n=6, m_values=m_values, sets_per_point=sets)
    return Table(
        title=f"Figure 9: average max steps, 6-cube ({sets} random sets/point)",
        x_label="m",
        x_values=res.m_values,
        columns={name: res.mean_steps[name] for name in PAPER_ALGORITHMS},
        notes=["all-port greedy step schedule; source node 0"],
    )


def _fig10(fast: bool) -> Table:
    if fast:
        m_values = [1, 10, 50, 100, 200, 400, 600, 800, 1000, 1023]
        sets = 20
    else:
        m_values = [1, 10, 25] + linear_grid(50, 1000, 50) + [1023]
        sets = 100
    res = stepwise_experiment(n=10, m_values=m_values, sets_per_point=sets)
    return Table(
        title=f"Figure 10: average max steps, 10-cube ({sets} random sets/point)",
        x_label="m",
        x_values=res.m_values,
        columns={name: res.mean_steps[name] for name in PAPER_ALGORITHMS},
        notes=["all-port greedy step schedule; source node 0"],
    )


# ---------------------------------------------------------------------------
# Figures 11-12: "nCUBE-2" (simulated 5-cube) delays, 4096-byte messages
# ---------------------------------------------------------------------------


def _delay_5cube(fast: bool):
    m_values = list(range(1, 32)) if not fast else [1, 2, 4, 7, 8, 12, 15, 16, 24, 31]
    sets = 20
    return delay_experiment(
        n=5, m_values=m_values, sets_per_point=sets, size=4096, timings=NCUBE2
    )


def _fig11(fast: bool) -> Table:
    res = _delay_5cube(fast)
    return Table(
        title="Figure 11: average delay (us), 4096-byte multicast, 5-cube (20 sets/point)",
        x_label="m",
        x_values=res.m_values,
        columns={name: res.avg_delay[name] for name in PAPER_ALGORITHMS},
        notes=["nCUBE-2 testbed substituted by the calibrated simulator (DESIGN.md S4)"],
    )


def _fig12(fast: bool) -> Table:
    res = _delay_5cube(fast)
    return Table(
        title="Figure 12: maximum delay (us), 4096-byte multicast, 5-cube (20 sets/point)",
        x_label="m",
        x_values=res.m_values,
        columns={name: res.max_delay[name] for name in PAPER_ALGORITHMS},
        notes=["nCUBE-2 testbed substituted by the calibrated simulator (DESIGN.md S4)"],
    )


# ---------------------------------------------------------------------------
# Figures 13-14: simulated 10-cube delays
# ---------------------------------------------------------------------------


def _delay_10cube(fast: bool):
    if fast:
        m_values = [1, 50, 100, 200, 400, 700, 1023]
        sets = 12
    else:
        m_values = [1, 10, 25] + linear_grid(50, 1000, 50) + [1023]
        sets = 100
    return delay_experiment(
        n=10, m_values=m_values, sets_per_point=sets, size=4096, timings=NCUBE2
    )


def _fig13(fast: bool) -> Table:
    res = _delay_10cube(fast)
    sets = res.sets_per_point
    return Table(
        title=f"Figure 13: average delay (us), 4096-byte multicast, 10-cube ({sets} sets/point)",
        x_label="m",
        x_values=res.m_values,
        columns={name: res.avg_delay[name] for name in PAPER_ALGORITHMS},
        notes=["MultiSim substituted by repro.simulator (DESIGN.md S4)"],
    )


def _fig14(fast: bool) -> Table:
    res = _delay_10cube(fast)
    sets = res.sets_per_point
    return Table(
        title=f"Figure 14: maximum delay (us), 4096-byte multicast, 10-cube ({sets} sets/point)",
        x_label="m",
        x_values=res.m_values,
        columns={name: res.max_delay[name] for name in PAPER_ALGORITHMS},
        notes=["MultiSim substituted by repro.simulator (DESIGN.md S4)"],
    )


# ---------------------------------------------------------------------------
# Ablations (design choices DESIGN.md calls out; beyond the paper)
# ---------------------------------------------------------------------------


def _ablation_ports(fast: bool) -> Table:
    """W-sort under one-port / 2-port / all-port injection."""
    m_values = [1, 4, 8, 16, 32, 63] if fast else [1, 2, 4, 8, 16, 24, 32, 48, 63]
    sets = 15 if fast else 40
    alg = get_algorithm("wsort")
    columns: dict[str, list[float]] = {"one-port": [], "2-port": [], "all-port": []}
    for i, m in enumerate(m_values):
        per = {"one-port": [], "2-port": [], "all-port": []}
        for dests in random_destination_sets(6, m, sets, seed=7100 + i):
            tree = alg.build_tree(6, 0, dests)
            for label, ports in (
                ("one-port", ONE_PORT),
                ("2-port", k_port(2)),
                ("all-port", ALL_PORT),
            ):
                per[label].append(simulate_multicast(tree, 4096, NCUBE2, ports).avg_delay)
        for label in columns:
            columns[label].append(mean(per[label]))
    return Table(
        title="Ablation: port model (W-sort, 6-cube, 4096 bytes, avg delay us)",
        x_label="m",
        x_values=m_values,
        columns=columns,
    )


def _ablation_wsort(fast: bool) -> Table:
    """The value of weighted_sort: Maxport with vs without it."""
    m_values = [1, 4, 8, 16, 32, 63] if fast else [1, 2, 4, 8, 12, 16, 24, 32, 48, 63]
    sets = 25 if fast else 100
    res = stepwise_experiment(
        n=6, m_values=m_values, algorithms=("maxport", "wsort"), sets_per_point=sets
    )
    return Table(
        title="Ablation: weighted_sort (mean max steps, 6-cube, all-port)",
        x_label="m",
        x_values=res.m_values,
        columns={"maxport": res.mean_steps["maxport"], "wsort": res.mean_steps["wsort"]},
    )


def _ablation_msgsize(fast: bool) -> Table:
    """Startup- vs bandwidth-dominated regimes (fixed m=16, 6-cube)."""
    sizes = [16, 64, 256, 1024, 4096, 16384]
    sets = 10 if fast else 30
    columns: dict[str, list[float]] = {name: [] for name in PAPER_ALGORITHMS}
    dest_sets = random_destination_sets(6, 16, sets, seed=7300)
    for size in sizes:
        for name in PAPER_ALGORITHMS:
            alg = get_algorithm(name)
            vals = [
                simulate_multicast(alg.build_tree(6, 0, d), size, NCUBE2, ALL_PORT).avg_delay
                for d in dest_sets
            ]
            columns[name].append(mean(vals))
    return Table(
        title="Ablation: message size (avg delay us, m=16, 6-cube, all-port)",
        x_label="bytes",
        x_values=sizes,
        columns=columns,
    )


def _ablation_resolution(fast: bool) -> Table:
    """E-cube resolution order: aggregate results are order-invariant."""
    m_values = [1, 4, 8, 16, 32, 63] if fast else [1, 2, 4, 8, 16, 32, 48, 63]
    sets = 25 if fast else 100
    columns: dict[str, list[float]] = {"desc": [], "asc": []}
    alg = get_algorithm("maxport")
    for i, m in enumerate(m_values):
        d_vals, a_vals = [], []
        for dests in random_destination_sets(6, m, sets, seed=7400 + i):
            d_vals.append(
                alg.schedule(6, 0, dests, ALL_PORT, ResolutionOrder.DESCENDING).max_step
            )
            a_vals.append(
                alg.schedule(6, 0, dests, ALL_PORT, ResolutionOrder.ASCENDING).max_step
            )
        columns["desc"].append(mean(d_vals))
        columns["asc"].append(mean(a_vals))
    return Table(
        title="Ablation: E-cube resolution order (Maxport mean max steps, 6-cube)",
        x_label="m",
        x_values=m_values,
        columns=columns,
    )


def _ablation_sensitivity(fast: bool) -> Table:
    """Sensitivity of the U-cube -> W-sort improvement to the timing
    constants (beyond the paper).

    The absolute nCUBE-2 constants are a substitution (DESIGN.md S4);
    this sweep shows the *conclusion* is insensitive to them: the
    relative improvement of W-sort over U-cube (average delay, m=16,
    6-cube) as the software startup is scaled from 1/4x to 4x the
    calibrated value, for three per-byte bandwidth scalings.
    """
    from repro.simulator.params import Timings

    setup_scales = [0.25, 0.5, 1.0, 2.0, 4.0]
    byte_scales = [0.25, 1.0, 4.0]
    sets = 10 if fast else 30
    dest_sets = random_destination_sets(6, 16, sets, seed=7600)
    ucube = get_algorithm("ucube")
    wsort = get_algorithm("wsort")
    columns: dict[str, list[float]] = {f"tbyte_x{b:g}": [] for b in byte_scales}
    for s in setup_scales:
        for b in byte_scales:
            t = Timings(
                t_setup=NCUBE2.t_setup * s,
                t_recv=NCUBE2.t_recv * s,
                t_byte=NCUBE2.t_byte * b,
                t_hop=NCUBE2.t_hop,
            )
            u_vals, w_vals = [], []
            for d in dest_sets:
                u_vals.append(
                    simulate_multicast(ucube.build_tree(6, 0, d), 4096, t, ALL_PORT).avg_delay
                )
                w_vals.append(
                    simulate_multicast(wsort.build_tree(6, 0, d), 4096, t, ALL_PORT).avg_delay
                )
            improvement = 100.0 * (1.0 - mean(w_vals) / mean(u_vals))
            columns[f"tbyte_x{b:g}"].append(improvement)
    return Table(
        title="Ablation: timing sensitivity (W-sort improvement over U-cube, %, m=16)",
        x_label="setup_x4",  # x values are setup scale * 4 (integers)
        x_values=[int(s * 4) for s in setup_scales],
        columns=columns,
        notes=["x axis: software-overhead scale x4 (1 = quarter, 16 = 4x calibrated)"],
    )


@dataclass(frozen=True, slots=True)
class _ConcurrentPoint:
    """Picklable spec for one k of the concurrent-multicast ablation."""

    k: int
    trials: int
    algorithms: tuple[str, ...]


def _concurrent_point(spec: _ConcurrentPoint) -> dict[str, float]:
    """One k-point: mean (over trials and operations) avg delay per
    algorithm.  Module-level so the sweep engine can fan it out."""
    import numpy as np

    from repro.simulator.multirun import simulate_concurrent_multicasts

    per: dict[str, list[float]] = {name: [] for name in spec.algorithms}
    for t in range(spec.trials):
        rng = np.random.default_rng(7500 + 97 * spec.k + t)
        sources = [int(s) for s in rng.choice(64, size=spec.k, replace=False)]
        dest_sets = []
        for s in sources:
            cand = np.array([u for u in range(64) if u != s])
            dest_sets.append(sorted(int(x) for x in rng.choice(cand, 16, replace=False)))
        for name in spec.algorithms:
            alg = get_algorithm(name)
            trees = [
                alg.build_tree(6, s, d) for s, d in zip(sources, dest_sets)
            ]
            res = simulate_concurrent_multicasts(trees, 4096, NCUBE2, ALL_PORT)
            per[name].append(mean(res.avg_delays))
    return {name: mean(per[name]) for name in spec.algorithms}


def _ablation_concurrent(fast: bool) -> Table:
    """Interference between concurrent multicasts (beyond the paper).

    k simultaneous multicasts, each from a distinct random source to 16
    random destinations in a 6-cube; the metric is the mean (over
    operations and trials) of the per-operation average delay.
    """
    ks = [1, 2, 4, 8]
    trials = 8 if fast else 25
    specs = [_ConcurrentPoint(k, trials, PAPER_ALGORITHMS) for k in ks]
    points = run_points(_concurrent_point, specs, label="concurrent")
    columns: dict[str, list[float]] = {
        name: [point[name] for point in points] for name in PAPER_ALGORITHMS
    }
    return Table(
        title="Ablation: k concurrent multicasts (mean avg delay us, m=16, 6-cube)",
        x_label="k",
        x_values=ks,
        columns=columns,
    )


# ---------------------------------------------------------------------------
# Fault sweeps (repro.faults; beyond the paper -- the paper's theory
# assumes a fault-free cube)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _FaultPoint:
    """Picklable spec for one failed-link count of the fault sweep."""

    k: int
    n: int
    m: int
    sets: int
    algorithms: tuple[str, ...]


def _fault_point(spec: _FaultPoint) -> dict[str, dict[str, float]]:
    """One k-point of the fault sweep: per algorithm, mean avg delay
    and delivery ratio for both modes.  Module-level so the sweep
    engine can fan it out; seeds derive from k alone."""
    from repro.faults import (
        DegradedHypercube,
        FaultScenario,
        repair_multicast,
        simulate_degraded_multicast,
    )

    k, n = spec.k, spec.n
    scenario = (
        FaultScenario.random_links(n, k, seed=9300 + k) if k else FaultScenario(n)
    )
    degraded = DegradedHypercube(n, scenario)
    dest_sets = random_destination_sets(n, spec.m, spec.sets, seed=9400 + k)
    out: dict[str, dict[str, float]] = {}
    for name in spec.algorithms:
        delays, ratios, r_delays, r_ratios = [], [], [], []
        for dests in dest_sets:
            res = simulate_degraded_multicast(
                get_algorithm(name).build_tree(n, 0, dests),
                scenario,
                label=f"faults/{name}/links{k}",
            )
            delays.append(res.avg_delay)
            ratios.append(res.delivery_ratio)
            report = repair_multicast(name, degraded, n, 0, dests)
            r_res = simulate_degraded_multicast(
                report.tree,
                scenario,
                label=f"faults/fault-{name}/links{k}",
                unreachable_hint=report.unreachable,
            )
            r_delays.append(r_res.avg_delay)
            r_ratios.append(r_res.delivery_ratio)
        out[name] = {
            "delay": mean(delays),
            "ratio": mean(ratios),
            "repaired_delay": mean(r_delays),
            "repaired_ratio": mean(r_ratios),
        }
    return out


def _fault_sweep(fast: bool) -> dict:
    """Shared sweep: 6-cube, m=16, the four paper algorithms under k
    failed links, comparing oblivious abort+retry against fault-aware
    repair.  Returns per-(k, algorithm) mean avg delay (over delivered
    destinations) and mean delivery ratio, both modes."""
    ks = [0, 1, 2, 3] if fast else [0, 1, 2, 3, 4, 6, 8]
    sets = 4 if fast else 15
    specs = [_FaultPoint(k, 6, 16, sets, PAPER_ALGORITHMS) for k in ks]
    points = run_points(_fault_point, specs, label="faults")
    out = {
        "ks": ks,
        "delay": {name: [] for name in PAPER_ALGORITHMS},
        "ratio": {name: [] for name in PAPER_ALGORITHMS},
        "repaired_delay": {name: [] for name in PAPER_ALGORITHMS},
        "repaired_ratio": {name: [] for name in PAPER_ALGORITHMS},
    }
    for point in points:
        for name in PAPER_ALGORITHMS:
            for field_name in ("delay", "ratio", "repaired_delay", "repaired_ratio"):
                out[field_name][name].append(point[name][field_name])
    return out


def _faults_delay(fast: bool) -> Table:
    res = _fault_sweep(fast)
    columns: dict[str, list[float]] = {}
    for name in PAPER_ALGORITHMS:
        columns[name] = res["delay"][name]
        columns[f"fault-{name}"] = res["repaired_delay"][name]
    return Table(
        title="Faults: avg delay (us) vs failed links (m=16, 6-cube, 4096 bytes)",
        x_label="links",
        x_values=res["ks"],
        columns=columns,
        notes=[
            "plain curves: oblivious abort+retry; fault-* curves: repaired detour schedules",
            "delay averaged over delivered destinations only (see docs/FAULTS.md)",
        ],
    )


def _faults_ratio(fast: bool) -> Table:
    res = _fault_sweep(fast)
    columns: dict[str, list[float]] = {}
    for name in PAPER_ALGORITHMS:
        columns[name] = res["ratio"][name]
        columns[f"fault-{name}"] = res["repaired_ratio"][name]
    return Table(
        title="Faults: delivery ratio vs failed links (m=16, 6-cube, 4096 bytes)",
        x_label="links",
        x_values=res["ks"],
        columns=columns,
        notes=[
            "ratio < 1 only when a destination is unreachable or retries are exhausted",
            "plain curves: oblivious abort+retry; fault-* curves: repaired detour schedules",
        ],
    )


EXPERIMENTS: dict[str, Experiment] = {
    e.id: e
    for e in [
        Experiment("fig9", "Stepwise comparisons, 6-cube", "Figure 9", _fig9),
        Experiment("fig10", "Stepwise comparisons, 10-cube", "Figure 10", _fig10),
        Experiment("fig11", "Average delay, 5-cube nCUBE-2", "Figure 11", _fig11),
        Experiment("fig12", "Maximum delay, 5-cube nCUBE-2", "Figure 12", _fig12),
        Experiment("fig13", "Average delay, 10-cube simulation", "Figure 13", _fig13),
        Experiment("fig14", "Maximum delay, 10-cube simulation", "Figure 14", _fig14),
        Experiment("ablation-ports", "Port-model ablation", "beyond the paper", _ablation_ports),
        Experiment("ablation-wsort", "weighted_sort ablation", "beyond the paper", _ablation_wsort),
        Experiment(
            "ablation-msgsize", "Message-size ablation", "beyond the paper", _ablation_msgsize
        ),
        Experiment(
            "ablation-resolution",
            "Resolution-order ablation",
            "beyond the paper",
            _ablation_resolution,
        ),
        Experiment(
            "ablation-concurrent",
            "Concurrent-multicast interference",
            "beyond the paper",
            _ablation_concurrent,
        ),
        Experiment(
            "ablation-sensitivity",
            "Timing-constant sensitivity",
            "beyond the paper",
            _ablation_sensitivity,
        ),
        Experiment(
            "faults-delay",
            "Delay vs failed links",
            "beyond the paper",
            _faults_delay,
        ),
        Experiment(
            "faults-ratio",
            "Delivery ratio vs failed links",
            "beyond the paper",
            _faults_ratio,
        ),
    ]
}


def _run_one(exp_id: str, fast: bool | None) -> Table:
    """Run one experiment under whatever sweep context is active."""
    try:
        exp = EXPERIMENTS[exp_id]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(f"unknown experiment {exp_id!r}; known: {known}") from None
    if fast is None:
        fast = default_fast()
    with trace_spans.span("experiment", id=exp_id, fast=bool(fast)) as _span:
        wall_start = perf_counter()
        table = exp.run(fast)
        wall_seconds = perf_counter() - wall_start
        if _span is not None:
            _span.set(points=len(table.x_values), wall_seconds=round(wall_seconds, 6))
    sink = _telemetry_sink.get_sink()
    if sink is not None:
        _emit_table_points(sink, exp, table, fast, wall_seconds)
    return table


def run_experiment(
    exp_id: str,
    fast: bool | None = None,
    *,
    jobs: int | None = None,
    cache_dir: str | None = None,
) -> Table:
    """Run a registered experiment by id (``fig9`` ... ``fig14``, or an
    ablation id).

    Args:
        exp_id: registered experiment id.
        fast: thinned sweep (default: fast unless ``REPRO_FULL``).
        jobs: fan the figure's points across this many worker processes
            (``0`` -> the CPU count / ``REPRO_JOBS``).  With the
            default ``None`` (and no ``cache_dir``) the experiment runs
            exactly as it always has: serially, in-process.  Results
            are bit-identical either way.
        cache_dir: directory of the point log shared across runs (see
            :mod:`repro.parallel.journal`): points it holds are served,
            computed ones appended; enables the sweep context even
            with serial execution.

    When a telemetry sink is active (``REPRO_TELEMETRY`` or the CLI's
    ``--telemetry``), one ``kind="experiment-point"``
    :class:`~repro.obs.telemetry.RunRecord` is emitted per x-axis point
    of the figure, carrying that point's value for every curve --
    worker telemetry included, merged into the same sink.
    """
    if jobs is None and cache_dir is None:
        return _run_one(exp_id, fast)
    with sweep_context(jobs=1 if jobs is None else jobs, cache_dir=cache_dir):
        return _run_one(exp_id, fast)


def run_sweep(
    exp_ids: Sequence[str],
    fast: bool | None = None,
    *,
    jobs: int | None = None,
    cache_dir: str | None = None,
    metrics: MetricsRegistry | None = None,
    watchdog: WatchdogConfig | None = None,
    fabric: "FabricConfig | None" = None,
) -> dict[str, Table]:
    """Run several experiments under one shared sweep context.

    One worker configuration and one point store span all the
    experiments, so figures that share points (11/12, 13/14, the two
    fault figures) compute each point once.  Returns ``{id: Table}``
    in the requested order; ``metrics`` (optional) receives the
    ``sim.parallel.*`` engine counters.

    With ``cache_dir`` set, every computed point is appended to the
    point log ``<cache_dir>/points.jsonl`` (see
    :mod:`repro.parallel.journal`), and the points already in it --
    from any earlier sweep, finished, crashed or killed, on any host --
    are served from it, bit-identically.  ``watchdog`` tunes hung-worker
    detection and requeueing (see :mod:`repro.parallel.resilience`;
    default :meth:`~repro.parallel.resilience.WatchdogConfig.from_env`).

    With ``fabric`` set (a :class:`~repro.parallel.fabric.FabricConfig`)
    the points are distributed over TCP worker hosts instead of local
    worker processes -- still bit-identically, and still logged by
    the coordinator alone.
    """
    ids = list(exp_ids)
    unknown = [exp_id for exp_id in ids if exp_id not in EXPERIMENTS]
    if unknown:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(f"unknown experiment(s) {unknown}; known: {known}")
    if fast is None:
        fast = default_fast()
    if jobs is None:
        # a fabric sweep's parallelism is its worker fleet, not local
        # processes; jobs only sizes the chunks (and the degradation
        # workers), so the CPU-count default is the right fallback
        jobs = 0 if fabric is not None else 1
    with sweep_context(
        jobs=jobs,
        cache_dir=cache_dir,
        metrics=metrics,
        watchdog=watchdog,
        fabric=fabric,
    ):
        return {exp_id: _run_one(exp_id, fast) for exp_id in ids}


def _emit_table_points(
    sink, exp: Experiment, table: Table, fast: bool, wall_seconds: float
) -> None:
    """One experiment-point record per x value of the result table."""
    n = _EXPERIMENT_CUBE_DIMS.get(exp.id, 0)
    for i, x in enumerate(table.x_values):
        sink.write(
            RunRecord(
                run_id=new_run_id(),
                kind="experiment-point",
                n=n,
                algorithm=exp.id,
                wall_seconds=wall_seconds,
                extra={
                    "experiment": exp.id,
                    "title": table.title,
                    "fast": fast,
                    "point_index": i,
                    "points": len(table.x_values),
                    "x_label": table.x_label,
                    "x": x,
                    "columns": {name: col[i] for name, col in table.columns.items()},
                    "wall_is_experiment_total": True,
                },
                trace_id=trace_spans.current_trace_id(),
            )
        )


#: Cube dimension each experiment sweeps (for the RunRecord ``n`` field).
_EXPERIMENT_CUBE_DIMS: dict[str, int] = {
    "fig9": 6,
    "fig10": 10,
    "fig11": 5,
    "fig12": 5,
    "fig13": 10,
    "fig14": 10,
    "ablation-ports": 6,
    "ablation-wsort": 6,
    "ablation-msgsize": 6,
    "ablation-resolution": 6,
    "ablation-concurrent": 6,
    "ablation-sensitivity": 6,
    "faults-delay": 6,
    "faults-ratio": 6,
}
