"""Command-line interface: ``repro-hypercube`` / ``python -m repro``.

Subcommands:

- ``list`` -- show registered algorithms and experiments.
- ``tree`` -- build and print one multicast tree and its schedule.
- ``experiment`` -- run a figure reproduction and print its table.
- ``collective`` -- time one collective operation.
- ``stats`` -- replay one multicast fully instrumented (metrics and
  channel rollups) and print/export the telemetry.
- ``faults`` -- sweep delivery time and delivery ratio against the
  number of failed links, oblivious (abort + retry) or repaired
  (fault-aware detour schedules); see docs/FAULTS.md.
- ``sweep`` -- run several figure reproductions under one parallel
  sweep context: shared worker configuration, each point computed
  once, merged telemetry; see docs/PERFORMANCE.md.  ``--cache-dir``
  logs every computed point, and a re-run with the same directory
  serves them, which picks a crashed or interrupted run back up
  bit-identically; the hung-worker watchdog guards every parallel
  sweep, and ``--soft-timeout-s`` / ``--hard-timeout-s`` tune it (see
  docs/RESILIENCE.md).
  ``--fabric-port`` distributes the points over TCP worker hosts
  instead of local workers (the sweep falls back to local workers if
  every remote one dies).  ``--prometheus PATH`` dumps the sweep's
  metrics registry in Prometheus text format.
- ``worker`` -- serve one sweep-fabric worker link: connect to a
  coordinator started with ``sweep --fabric-port``, execute its
  chunks, heartbeat, exit on shutdown.  Exits ``0`` on an orderly
  fleet shutdown, ``1`` when no coordinator is reachable or the link
  drops while idle, and -- beyond the standard contract -- ``70``
  when the coordinator vanishes mid-chunk (the chunk is orphaned, so
  supervisors can tell lost work from a finished fleet).
- ``serve`` -- run the schedule-planning HTTP service (coalescing,
  admission control, graceful drain on SIGTERM); see docs/SERVICE.md.
- ``lint`` -- run the project-invariant static analysis (determinism,
  timing/async/exception hygiene, exit-code and telemetry-naming
  contracts) over the tree; ``0`` clean, ``1`` findings, ``2`` for
  usage errors or a corrupt baseline.  ``--update-baseline`` rewrites
  the committed grandfather file; see docs/STATIC_ANALYSIS.md.

``experiment``, ``collective``, ``stats``, ``faults``, and ``sweep``
accept ``--telemetry PATH`` to export structured
:class:`~repro.obs.telemetry.RunRecord` JSON lines (equivalently: set
the ``REPRO_TELEMETRY`` environment variable; see
docs/OBSERVABILITY.md).  ``experiment`` and ``sweep`` accept
``--parallel`` / ``--jobs N`` to fan points across worker processes,
and ``--cache-dir PATH`` to serve points from, and log new ones to,
``PATH/points.jsonl``; results are bit-identical to serial runs.  Both
also accept ``--trace PATH`` to write a Chrome trace-event JSON sidecar
of the run (worker spans included, loadable in Perfetto; see
docs/TRACING.md); the figures themselves are unchanged by it.
:func:`main` installs the telemetry sink and the tracer around
whichever subcommand runs.

Every subcommand exits nonzero on failure: ``1`` for a runtime error
(the message goes to stderr), ``2`` for bad arguments (found before
any work starts), ``130`` on Ctrl-C.  ``report`` exits ``1`` when any
figure check FAILs.

Benchmarking is not a subcommand: the repository benchmark is
``perfbench/`` (``python3 perfbench/run.py``; see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from typing import Callable, Sequence

from repro.analysis.experiments import EXPERIMENTS, run_experiment, run_sweep
from repro.collectives.api import HypercubeCollectives
from repro.core.addressing import MAX_N
from repro.core.paths import ResolutionOrder
from repro.multicast.ports import ALL_PORT, ONE_PORT, k_port
from repro.multicast.registry import ALGORITHMS, get_algorithm
from repro.obs import sink as telemetry_sink
from repro.parallel.journal import POINT_LOG
from repro.simulator.params import NCUBE2
from repro.simulator.run import simulate_multicast

__all__ = ["main"]


class _UsageError(Exception):
    """Bad arguments a handler found before starting any work (exit 2)."""


def _ports(text: str):
    """``-p``: ``one``, ``all`` or a port count ``k``."""
    if text == "all":
        return ALL_PORT
    if text == "one" or text == "1":
        return ONE_PORT
    try:
        return k_port(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'one', 'all' or a port count >= 1, got {text!r}"
        ) from None


def _int_list(text: str) -> list[int]:
    """Integers separated by commas or spaces, in any base Python
    accepts: ``'1,3,5'`` or ``'0b101 7'``."""
    try:
        return [int(tok, 0) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers such as '1,3,5' or '0b101 7', got {text!r}"
        ) from None


def _link_counts(text: str) -> list[int]:
    counts = _int_list(text)
    if not counts or min(counts) < 0:
        raise argparse.ArgumentTypeError(f"expected failed-link counts >= 0, got {text!r}")
    return sorted(set(counts))


def _int_in(low: int, high: float = math.inf) -> Callable[[str], int]:
    """An integer in ``low..high``."""
    want = f">= {low}" if high == math.inf else f"in {low}..{high}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"expected an integer {want}, got {text!r}")
        return value

    return parse


def _float_in(low: float, high: float, *, closed: bool) -> Callable[[str], float]:
    """A number in ``[low, high]`` (``closed``) or ``(low, high)``; NaN
    is in neither."""
    want = f"[{low:g}, {high:g}]" if closed else f"({low:g}, {high:g})"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (low <= value <= high if closed else low < value < high):
            raise argparse.ArgumentTypeError(f"expected a number in {want}, got {text!r}")
        return value

    return parse


def _experiment_id(text: str) -> str:
    if text not in EXPERIMENTS:
        raise argparse.ArgumentTypeError(
            f"unknown experiment {text!r} (known: {', '.join(EXPERIMENTS)})"
        )
    return text


def _experiment_ids(text: str) -> list[str]:
    return [_experiment_id(exp_id) for exp_id in text.split(",")]


def _build_tree(args: argparse.Namespace):
    order = ResolutionOrder.ASCENDING if args.ascending else ResolutionOrder.DESCENDING
    return get_algorithm(args.algorithm).build_tree(
        args.n, args.source, args.destinations, order
    )


def _cmd_list(_args: argparse.Namespace) -> int:
    print("algorithms:")
    for name in sorted(ALGORITHMS):
        print(f"  {name}")
    print("experiments:")
    for exp in EXPERIMENTS.values():
        print(f"  {exp.id:<22} {exp.title} ({exp.description})")
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    tree = _build_tree(args)
    sched = tree.schedule(args.ports)
    width = args.n
    print(f"{args.algorithm} multicast in a {args.n}-cube, {args.ports.name}")
    print(f"source {args.source:0{width}b}, {len(args.destinations)} destination(s)")
    for send in tree.sends:
        step = sched.step_of(send)
        print(f"  step {step}: {send.src:0{width}b} -> {send.dst:0{width}b}")
    print(f"steps: {sched.max_step}   tree depth: {tree.depth()}   hops: {tree.total_hops()}")
    report = sched.check_contention()
    print(f"contention check: {report.summary()}")
    if args.simulate or args.timeline:
        res = simulate_multicast(tree, args.size, NCUBE2, args.ports, trace=args.timeline)
        print(
            f"simulated (4096B unless --size): avg {res.avg_delay:.0f} us, "
            f"max {res.max_delay:.0f} us, blocked {res.total_blocked_time:.0f} us"
        )
        if args.timeline:
            from repro.simulator.timeline import render_timeline

            print()
            print(render_timeline(res.network.trace, args.n))
    return 0 if report.ok else 1


def _resolve_jobs(args: argparse.Namespace) -> int | None:
    """``--jobs N`` / ``--parallel`` / ``--fabric-port`` -> worker count
    (None = serial); a bad ``REPRO_JOBS`` raises a ValueError naming it."""
    if args.jobs is not None:
        return args.jobs
    if args.parallel or getattr(args, "fabric_port", None) is not None:
        from repro.parallel.engine import default_jobs

        return default_jobs()
    return None


def _cmd_experiment(args: argparse.Namespace) -> int:
    table = run_experiment(args.id, fast=not args.full, jobs=args.jobs, cache_dir=args.cache_dir)
    if args.json:
        print(table.to_json())
        return 0
    print(table.render(args.precision))
    if args.plot:
        from repro.analysis.plot import ascii_plot

        print()
        print(ascii_plot(table))
    return 0


def _resolve_watchdog(args: argparse.Namespace):
    """``REPRO_WATCHDOG_*`` defaults, then ``--soft/--hard-timeout-s``
    -> the sweep's WatchdogConfig (ValueError on a bad value, an
    inverted pair included).  A hard timeout not given on the command
    line follows a larger soft one, as in ``from_env``."""
    from repro.parallel.resilience import WatchdogConfig

    base = WatchdogConfig.from_env()
    soft = base.soft_timeout_s if args.soft_timeout_s is None else args.soft_timeout_s
    hard = max(base.hard_timeout_s, soft) if args.hard_timeout_s is None else args.hard_timeout_s
    return dataclasses.replace(base, soft_timeout_s=soft, hard_timeout_s=hard)


def _resolve_fabric(args: argparse.Namespace):
    """``--fabric-port`` (and friends) -> a FabricConfig or None."""
    port = getattr(args, "fabric_port", None)
    if port is None:
        return None
    from repro.parallel.fabric import FabricConfig

    return FabricConfig(
        bind_host=args.fabric_host,
        bind_port=port,
        min_workers=args.fabric_min_workers,
        wait_s=args.fabric_wait_s,
    )


def _print_digest(registry, out, *, fabric: bool, log: str | None) -> None:
    """The sweep's one-line ``sim.*`` digests: parallel, the fabric when
    the sweep used one, then the points served and computed."""
    snap = registry.snapshot()

    def val(name: str) -> float:
        entry = snap.get(f"sim.{name}", {})
        return entry.get("value", entry.get("total_seconds", 0))

    print(
        f"parallel: {val('parallel.points_total'):g} point(s), "
        f"{val('parallel.points_remote'):g} remote, "
        f"{val('parallel.worker_failures'):g} worker failure(s), "
        f"dispatch {val('parallel.dispatch_wall'):.2f} s",
        file=out,
    )
    if fabric:
        print(
            f"fabric: {val('fabric.workers_joined'):g} worker(s) joined, "
            f"{val('fabric.chunks_completed'):g} chunk(s) remote "
            f"({val('fabric.points_remote'):g} point(s)), "
            f"{val('fabric.hosts_lost'):g} host(s) lost, "
            f"{val('fabric.requeued_chunks'):g} chunk(s) requeued, "
            f"degraded to local {val('fabric.degraded_to_local'):g} time(s)",
            file=out,
        )
    requested, served = val("parallel.points_total"), val("parallel.points_served")
    print(
        f"points: {requested:g} requested, {served:g} served, "
        f"{requested - served:g} computed" + (f", log {log}" if log else ""),
        file=out,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.obs.metrics import MetricsRegistry

    ids = args.ids or sorted(EXPERIMENTS)
    try:
        fabric = _resolve_fabric(args)
        watchdog = _resolve_watchdog(args)
    except ValueError as exc:
        raise _UsageError(f"sweep: {exc}") from None
    registry = MetricsRegistry()
    tables = run_sweep(
        ids,
        fast=not args.full,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        metrics=registry,
        watchdog=watchdog,
        fabric=fabric,
    )
    if args.json:
        import json as _json

        print(
            _json.dumps(
                {exp_id: _json.loads(table.to_json()) for exp_id, table in tables.items()},
                indent=2,
            )
        )
    else:
        print("\n\n".join(table.render(args.precision) for table in tables.values()))
    # with --json stdout is the document alone; the digest goes to stderr
    out = sys.stderr if args.json else sys.stdout
    log = os.path.join(args.cache_dir, POINT_LOG) if args.cache_dir else None
    _print_digest(registry, out, fabric=fabric is not None, log=log)
    if args.prometheus:
        from repro.obs.exporters import write_prometheus

        write_prometheus(args.prometheus, registry)
        print(f"metrics written to {args.prometheus}", file=out)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.parallel.worker import run_worker

    # a negated comparison, so that NaN fails it too
    if not args.connect_timeout_s >= 0:
        raise _UsageError(
            f"worker: --connect-timeout-s must be >= 0, got {args.connect_timeout_s}"
        )
    try:
        return run_worker(
            args.connect,
            label=args.label,
            connect_timeout_s=args.connect_timeout_s,
        )
    except ValueError as exc:  # bad HOST:PORT
        raise _UsageError(f"worker: {exc}") from None


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json

    from repro.lint import RULES, lint_paths, load_baseline, save_baseline, split_findings
    from repro.lint.baseline import BaselineError

    paths = args.paths or ["src"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        raise _UsageError(f"lint: no such path(s): {', '.join(missing)}")
    unknown_rules = [r for r in (args.select or []) if r.upper() not in RULES]
    if unknown_rules:
        raise _UsageError(
            f"lint: unknown rule(s): {', '.join(unknown_rules)} "
            f"(known: {', '.join(sorted(RULES))})"
        )
    try:
        baseline = load_baseline(args.baseline)
    except BaselineError as exc:
        raise _UsageError(f"lint: {exc}") from None
    result = lint_paths(paths, jobs=args.jobs)
    if args.select:
        selected = {r.upper() for r in args.select}
        result.findings = [f for f in result.findings if f.rule in selected]
    new, baselined = split_findings(result.findings, baseline)

    if args.update_baseline:
        report_only: dict[str, int] = {}
        for tree in ("tests", "examples"):
            if os.path.isdir(tree):
                report_only[tree] = len(lint_paths([tree]).findings)
        save_baseline(args.baseline, result.findings, report_only)
        counts = ", ".join(f"{tree}: {n}" for tree, n in sorted(report_only.items()))
        print(
            f"baseline {args.baseline}: {len(result.findings)} grandfathered "
            f"finding(s); report-only counts {{{counts}}}"
        )
        return 0

    if args.format == "json":
        print(
            _json.dumps(
                {
                    "schema": 1,
                    "paths": list(paths),
                    "files": result.files,
                    "counts": {
                        "findings": len(result.findings),
                        "new": len(new),
                        "waived": result.waived,
                        "baselined": baselined,
                    },
                    "findings": [finding.to_dict() for finding in new],
                    "clean": not new,
                },
                indent=2,
            )
        )
    else:
        for finding in new:
            print(finding.format())
        verdict = "clean" if not new else f"{len(new)} new finding(s)"
        print(
            f"lint: {result.files} file(s) checked, {verdict} "
            f"({result.waived} waived, {baselined} baselined)"
        )
    if new and not args.report_only:
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import AdmissionConfig, ServiceConfig, serve_async

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            admission=AdmissionConfig(
                max_inflight=args.max_inflight,
                max_queue=args.max_queue,
                rate_per_client=args.rate,
                burst=args.burst,
            ),
            deadline_ms=args.deadline_ms,
            drain_grace_s=args.drain_grace_s,
        )
    except ValueError as exc:
        raise _UsageError(f"serve: {exc}") from None

    def ready(app) -> None:
        # the line scripts and the CI smoke job wait for (flushed so a
        # piped stdout delivers it before the first request arrives)
        print(f"serving on http://{app.host}:{app.port}", flush=True)

    return asyncio.run(serve_async(config, ready=ready))


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import markdown_report

    doc = markdown_report(fast=not args.full, figures=args.figures)
    print(doc)
    if "| FAIL |" in doc:
        print("report: one or more figure checks FAILed", file=sys.stderr)
        return 1
    return 0


def _cmd_collective(args: argparse.Namespace) -> int:
    comm = HypercubeCollectives(args.n, ports=args.ports, algorithm=args.algorithm)
    op = args.op
    if op == "broadcast":
        r = comm.broadcast(args.root, args.size)
        print(f"broadcast: avg {r.avg_delay:.0f} us, max {r.max_delay:.0f} us")
    elif op == "multicast":
        r = comm.multicast(args.root, args.destinations or [1], args.size)
        print(f"multicast: avg {r.avg_delay:.0f} us, max {r.max_delay:.0f} us")
    else:
        runner = {
            "scatter": lambda: comm.scatter(args.root, args.size),
            "gather": lambda: comm.gather(args.root, args.size),
            "allgather": lambda: comm.allgather(args.size),
            "reduce": lambda: comm.reduce(args.root, args.size),
            "allreduce": lambda: comm.allreduce(args.size),
            "barrier": lambda: comm.barrier(),
        }[op]
        r = runner()
        print(f"{op}: completion {r.completion_time:.0f} us ({r.events} events)")
    return 0


def _format_metric(name: str, snap: dict) -> str:
    kind = snap.get("type")
    if kind == "counter":
        return f"  {name}: {snap['value']:g}"
    if kind == "gauge":
        return f"  {name}: {snap['value']:g} (min {snap['min']:g}, max {snap['max']:g})"
    if kind == "timer":
        return (
            f"  {name}: {snap['total_seconds']:.6f} s over {snap['count']} span(s)"
        )
    if kind == "histogram":
        return (
            f"  {name}: count {snap['count']}, mean {snap['mean']:.1f}, "
            f"min {snap['min']:.1f}, max {snap['max']:.1f}"
        )
    return f"  {name}: {snap}"


def _stats_from_file(args: argparse.Namespace) -> int:
    """``stats --from PATH``: summarize an exported telemetry file.

    Per the exit-code contract, a missing or corrupt file is an
    argument-level error: clean one-line message, exit 2, no traceback.
    """
    import json as _json

    from repro.obs.sink import read_jsonl

    path = args.from_path
    try:
        records = read_jsonl(path)
    except OSError as exc:
        raise _UsageError(f"error: cannot read telemetry file {path}: {exc}") from None
    except ValueError as exc:
        raise _UsageError(f"error: corrupt telemetry file {path}: {exc}") from None
    kinds: dict[str, int] = {}
    traces: set[str] = set()
    wall = 0.0
    events = 0
    for rec in records:
        kinds[rec.kind] = kinds.get(rec.kind, 0) + 1
        wall += rec.wall_seconds
        events += rec.events or 0
        if rec.trace_id:
            traces.add(rec.trace_id)
    if args.json:
        print(
            _json.dumps(
                {
                    "path": str(path),
                    "records": len(records),
                    "kinds": dict(sorted(kinds.items())),
                    "wall_seconds": wall,
                    "events": events,
                    "trace_ids": sorted(traces),
                },
                indent=2,
            )
        )
        return 0
    print(f"telemetry {path}: {len(records)} record(s)")
    for kind, count in sorted(kinds.items()):
        print(f"  {kind}: {count}")
    print(f"  wall: {wall:.4f} s total   events: {events}")
    if traces:
        print(f"  trace id(s): {', '.join(sorted(traces))}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.rollup import channel_rollup

    if args.from_path is not None:
        return _stats_from_file(args)
    if args.n is None or args.destinations is None:
        raise _UsageError("stats: -n and -d/--destinations are required (unless --from)")
    tree = _build_tree(args)

    registry = MetricsRegistry()
    # capture the driver's own record so we can enrich it with
    # channel-level data before exporting
    with telemetry_sink.capture() as mem:
        res = simulate_multicast(
            tree,
            args.size,
            NCUBE2,
            args.ports,
            trace=True,
            metrics=registry,
            label=f"stats/{args.algorithm}",
        )
    record = mem.records[0]
    record.extra["channels"] = channel_rollup(
        res.network, horizon=res.completion_time, top=args.top
    )
    telemetry_sink.emit(record)  # --telemetry PATH, or REPRO_TELEMETRY if set

    if args.json:
        print(record.to_json())
        return 0

    width = args.n
    print(
        f"{args.algorithm} multicast replay in a {args.n}-cube, {args.ports.name}, "
        f"{args.size} bytes"
    )
    print(
        f"source {args.source:0{width}b}, {len(args.destinations)} destination(s)   "
        f"run {record.run_id}"
    )
    print(
        f"delays: avg {res.avg_delay:.0f} us, max {res.max_delay:.0f} us, "
        f"completion {res.completion_time:.0f} us"
    )
    print(
        f"events: {res.events}   worms: {len(res.network.worms)}   "
        f"blocked: {res.total_blocked_time:.0f} us   wall: {record.wall_seconds:.4f} s"
    )
    print("metrics:")
    for name, snap in record.metrics.items():
        print(_format_metric(name, snap))
    ch = record.extra["channels"]
    print(
        f"channels: {ch['channels_used']} used, {ch['occupancies']} occupanc(ies)"
    )
    if ch["hotspot_arcs"]:
        hot = ", ".join(
            f"({h['node']:0{width}b},d{h['dim']}) {h['busy_us']:.0f}us"
            for h in ch["hotspot_arcs"][: args.top]
        )
        print(f"  hotspots: {hot}")
    busy = ch["per_dimension_busy_us"]
    if busy:
        print("  per-dim busy:  " + "  ".join(f"d{d}={t:.0f}us" for d, t in busy.items()))
    blocked = ch["per_dimension_blocked_us"]
    if blocked:
        print("  per-dim blocked:  " + "  ".join(f"d{d}={t:.0f}us" for d, t in blocked.items()))
    else:
        print("  per-dim blocked: none (contention-free)")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    # heavyweight subsystem: import only when the subcommand runs
    from repro.analysis.workloads import random_destination_sets
    from repro.faults import (
        DegradedHypercube,
        FaultScenario,
        repair_multicast,
        simulate_degraded_multicast,
        verify_degraded,
    )
    from repro.multicast.registry import PAPER_ALGORITHMS

    n = args.n
    names = [args.algorithm] if args.algorithm else list(PAPER_ALGORITHMS)
    dest_sets = random_destination_sets(n, args.m, args.sets, seed=args.seed + 17)
    mode = "fault-aware repair" if args.repair else "oblivious abort+retry"
    print(
        f"fault sweep: {n}-cube, m={args.m}, {args.sets} destination set(s), "
        f"{args.size} bytes, {mode}, seed {args.seed}"
    )
    print(
        f"{'links':>5} {'algorithm':<10} {'delivered':>11} {'ratio':>6} "
        f"{'avg us':>8} {'aborted':>8} {'retries':>8} {'gave up':>8} {'repairs':>8}"
    )
    worst_ratio = 1.0
    for k in args.links:
        scenario = (
            FaultScenario.random_links(n, k, seed=args.seed + k)
            if k
            else FaultScenario(n)
        )
        degraded = DegradedHypercube(n, scenario)
        for name in names:
            delivered = total = aborted = retries = gave_up = repairs = 0
            delay_sum = 0.0
            delay_runs = 0
            for dests in dest_sets:
                unreachable: tuple[int, ...] = ()
                if args.repair:
                    report = repair_multicast(name, degraded, n, 0, dests)
                    verify_degraded(report).raise_if_failed()
                    tree = report.tree
                    unreachable = report.unreachable
                    repairs += len(report.repairs)
                else:
                    tree = get_algorithm(name).build_tree(n, 0, dests)
                res = simulate_degraded_multicast(
                    tree,
                    scenario,
                    args.size,
                    max_retries=args.retries,
                    deadline_us=args.deadline_us,
                    label=f"faults/{name}/links{k}",
                    unreachable_hint=unreachable,
                )
                delivered += len(res.delivered)
                total += len(tree.destinations | set(unreachable))
                aborted += res.aborted_worms
                retries += res.retries
                gave_up += res.gave_up
                if res.delivered:
                    delay_sum += res.avg_delay
                    delay_runs += 1
            ratio = delivered / total if total else 1.0
            worst_ratio = min(worst_ratio, ratio)
            avg = delay_sum / delay_runs if delay_runs else 0.0
            print(
                f"{k:>5} {name:<10} {delivered:>5}/{total:<5} {ratio:>6.3f} "
                f"{avg:>8.0f} {aborted:>8} {retries:>8} {gave_up:>8} {repairs:>8}"
            )
    return 0 if worst_ratio >= args.min_ratio else 1


def build_parser() -> argparse.ArgumentParser:
    # option groups that several subcommands share, declared once as parents
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument(
        "--parallel", action="store_true",
        help="fan the work across worker processes (CPU count / REPRO_JOBS)",
    )
    jobs.add_argument(
        "--jobs", type=_int_in(1), default=None, metavar="N",
        help="worker process count (implies --parallel; 1 = serial)",
    )
    telemetry = argparse.ArgumentParser(add_help=False)
    telemetry.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="export RunRecord JSON lines (one per run or figure point, "
             "workers included) to PATH",
    )
    figures = argparse.ArgumentParser(add_help=False, parents=[jobs, telemetry])
    figures.add_argument("--full", action="store_true", help="paper-parity parameters")
    figures.add_argument("--precision", type=_int_in(0), default=2)
    figures.add_argument("--json", action="store_true", help="emit one JSON document")
    figures.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="serve points from, and log computed ones to, PATH/points.jsonl "
             "(a re-run resumes a crashed one)",
    )
    figures.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome trace-event JSON sidecar of the run to PATH",
    )
    multicast = argparse.ArgumentParser(add_help=False)
    multicast.add_argument("-a", "--algorithm", default="wsort", choices=sorted(ALGORITHMS))
    multicast.add_argument("-p", "--ports", type=_ports, default="all", help="'one', 'all', or k")
    multicast.add_argument("--size", type=_int_in(1), default=4096, help="message bytes")
    replay = argparse.ArgumentParser(add_help=False, parents=[multicast])
    replay.add_argument("-s", "--source", type=int, default=0)
    replay.add_argument("--ascending", action="store_true", help="nCUBE-2 resolution order")

    parser = argparse.ArgumentParser(
        prog="repro-hypercube",
        description="All-port wormhole-routed hypercube multicast (SC'93 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list algorithms and experiments")
    p_list.set_defaults(func=_cmd_list)

    p_tree = sub.add_parser("tree", help="build and print a multicast tree", parents=[replay])
    p_tree.add_argument("-n", type=_int_in(1, MAX_N), required=True, help="cube dimension")
    p_tree.add_argument(
        "-d", "--destinations", type=_int_list, required=True, help="e.g. '1,3,5' or '0b101 7'"
    )
    p_tree.add_argument("--simulate", action="store_true", help="also run the timed simulator")
    p_tree.add_argument("--timeline", action="store_true", help="draw channel-occupancy timeline")
    p_tree.set_defaults(func=_cmd_tree)

    p_exp = sub.add_parser("experiment", help="reproduce a figure", parents=[figures])
    p_exp.add_argument("id", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--plot", action="store_true", help="also draw an ASCII plot")
    p_exp.set_defaults(func=_cmd_experiment)

    p_sweep = sub.add_parser(
        "sweep", help="run several figure reproductions under one parallel context",
        parents=[figures],
    )
    p_sweep.add_argument(
        "ids", nargs="*", metavar="ID", type=_experiment_id,
        help="experiment ids (default: every registered experiment)",
    )
    p_sweep.add_argument(
        "--prometheus", default=None, metavar="PATH",
        help="also dump the sweep's metrics registry in Prometheus text format",
    )
    p_sweep.add_argument(
        "--soft-timeout-s", type=float, default=None, metavar="S",
        help="watchdog soft per-point timeout: flag the worker "
             "(default: REPRO_WATCHDOG_SOFT_S or 30)",
    )
    p_sweep.add_argument(
        "--hard-timeout-s", type=float, default=None, metavar="S",
        help="watchdog hard per-point timeout: kill the worker and requeue "
             "(default: REPRO_WATCHDOG_HARD_S or 120)",
    )
    p_sweep.add_argument(
        "--fabric-port", type=int, default=None, metavar="PORT",
        help="coordinate TCP worker hosts on PORT instead of using "
             "local workers (0 = ephemeral; start workers with "
             "'repro-hypercube worker --connect HOST:PORT')",
    )
    p_sweep.add_argument(
        "--fabric-host", default="127.0.0.1", metavar="HOST",
        help="interface the fabric coordinator binds (default: 127.0.0.1)",
    )
    p_sweep.add_argument(
        "--fabric-min-workers", type=int, default=1, metavar="N",
        help="workers to wait for before dispatching (late joiners still welcome)",
    )
    p_sweep.add_argument(
        "--fabric-wait-s", type=float, default=15.0, metavar="S",
        help="how long to wait for --fabric-min-workers before proceeding",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_worker = sub.add_parser(
        "worker", help="serve one sweep-fabric worker link until shutdown"
    )
    p_worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the sweep coordinator's fabric endpoint",
    )
    p_worker.add_argument(
        "--label", default=None, metavar="NAME",
        help="worker id shown in fabric telemetry (default: host-pid)",
    )
    p_worker.add_argument(
        "--connect-timeout-s", type=float, default=30.0, metavar="S",
        help="keep retrying the connection this long (workers may start first)",
    )
    p_worker.set_defaults(func=_cmd_worker)

    p_lint = sub.add_parser(
        "lint", help="project-invariant static analysis (REP001..REP006)",
        parents=[jobs],
    )
    p_lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="findings as human-readable lines or one JSON document",
    )
    p_lint.add_argument(
        "--baseline", default="lint-baseline.json", metavar="PATH",
        help="committed grandfather file (default: lint-baseline.json; "
             "missing file = empty baseline, corrupt file = exit 2)",
    )
    p_lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings and record "
             "report-only counts for tests/ and examples/",
    )
    p_lint.add_argument(
        "--report-only", action="store_true",
        help="print findings but exit 0 (advisory sweeps over tests/examples)",
    )
    p_lint.add_argument(
        "--select", nargs="+", default=None, metavar="RULE",
        help="only report these rule ids (e.g. REP002 REP004)",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_serve = sub.add_parser(
        "serve", help="run the schedule-planning HTTP service until SIGTERM"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8421, help="listen port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="build executor threads (the service's build concurrency)",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=64, metavar="N",
        help="admitted requests before new arrivals queue",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=128, metavar="N",
        help="queued requests before new arrivals get 503",
    )
    p_serve.add_argument(
        "--rate", type=float, default=None, metavar="R",
        help="per-client sustained req/s; above it clients get 429 (default: off)",
    )
    p_serve.add_argument(
        "--burst", type=float, default=20.0, metavar="B",
        help="per-client burst allowance for --rate",
    )
    p_serve.add_argument(
        "--deadline-ms", type=float, default=10_000.0, metavar="MS",
        help="default per-request deadline (X-Deadline-Ms can lower it)",
    )
    p_serve.add_argument(
        "--drain-grace-s", type=float, default=5.0, metavar="S",
        help="seconds granted to in-flight requests on SIGTERM drain",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_rep = sub.add_parser("report", help="paper-vs-measured markdown report")
    p_rep.add_argument("--full", action="store_true", help="paper-parity parameters")
    p_rep.add_argument(
        "--figures", default=None, type=_experiment_ids,
        help="comma-separated subset, e.g. fig9,fig11",
    )
    p_rep.set_defaults(func=_cmd_report)

    p_col = sub.add_parser(
        "collective", help="time a collective operation",
        parents=[multicast, telemetry],
    )
    p_col.add_argument(
        "op",
        choices=[
            "broadcast",
            "multicast",
            "scatter",
            "gather",
            "allgather",
            "reduce",
            "allreduce",
            "barrier",
        ],
    )
    p_col.add_argument("-n", type=_int_in(1, MAX_N), required=True, help="cube dimension")
    p_col.add_argument("--root", type=int, default=0)
    p_col.add_argument("-d", "--destinations", type=_int_list, default=None)
    p_col.set_defaults(func=_cmd_collective)

    p_stats = sub.add_parser(
        "stats", help="replay one multicast with full instrumentation",
        parents=[replay, telemetry],
    )
    p_stats.add_argument("-n", type=_int_in(1, MAX_N), default=None, help="cube dimension")
    p_stats.add_argument(
        "-d", "--destinations", type=_int_list, default=None, help="e.g. '1,3,5' or '0b101 7'"
    )
    p_stats.add_argument(
        "--from", dest="from_path", default=None, metavar="PATH",
        help="summarize an exported telemetry JSONL file instead of running",
    )
    p_stats.add_argument("--top", type=_int_in(1), default=5, help="hotspot arcs to show")
    p_stats.add_argument("--json", action="store_true", help="print the RunRecord JSON")
    p_stats.set_defaults(func=_cmd_stats)

    p_faults = sub.add_parser(
        "faults", help="sweep delivery vs failed links on a degraded cube",
        parents=[telemetry],
    )
    p_faults.add_argument("-n", type=_int_in(1, MAX_N), required=True, help="cube dimension")
    p_faults.add_argument(
        "--links", type=_link_counts, default="0,1,2,3",
        help="failed-link counts to sweep, e.g. '0,2,4'",
    )
    p_faults.add_argument("--seed", type=int, default=9300, help="fault scenario seed")
    p_faults.add_argument("-m", type=_int_in(1), default=8, help="destinations per multicast")
    p_faults.add_argument(
        "--sets", type=_int_in(1), default=3, help="destination sets per point"
    )
    p_faults.add_argument("--size", type=_int_in(1), default=4096, help="message bytes")
    p_faults.add_argument("--retries", type=_int_in(0), default=3, help="per-send retry cap")
    p_faults.add_argument(
        "--deadline-us", type=_float_in(0, math.inf, closed=False), default=None,
        help="hard stop (simulated us)",
    )
    p_faults.add_argument(
        "--repair", action="store_true",
        help="build fault-aware detour schedules instead of oblivious retry",
    )
    p_faults.add_argument(
        "-a", "--algorithm", default=None, choices=sorted(ALGORITHMS),
        help="single algorithm (default: the four paper algorithms)",
    )
    p_faults.add_argument(
        "--min-ratio", type=_float_in(0, 1, closed=True), default=0.0,
        help="exit nonzero if any point's delivery ratio falls below this",
    )
    p_faults.set_defaults(func=_cmd_faults)
    return parser


def _run(args: argparse.Namespace) -> int:
    """Run the subcommand with ``--telemetry PATH`` installed as the
    JSONL sink and, with ``--trace PATH``, under a fresh tracer whose
    Chrome trace-event JSON is written afterwards.  With ``--json`` the
    notes go to stderr so stdout stays a clean document."""
    out = sys.stderr if getattr(args, "json", False) else sys.stdout
    telemetry = getattr(args, "telemetry", None)
    trace = getattr(args, "trace", None)
    sink = telemetry_sink.JsonlSink(telemetry) if telemetry else None
    previous = telemetry_sink.configure(sink) if sink is not None else None
    try:
        if not trace:
            rc = args.func(args)
        else:
            from repro.obs.exporters import write_chrome_trace
            from repro.obs.trace_spans import Tracer, trace_capture

            with trace_capture(Tracer(label=args.command)) as tracer:
                rc = args.func(args)
            events = write_chrome_trace(trace, tracer)
            print(f"trace {tracer.trace_id}: {events} event(s) written to {trace}", file=out)
    finally:
        if sink is not None:
            telemetry_sink.configure(previous)
    if sink is not None and sink.written:
        print(f"telemetry written to {telemetry}", file=out)
    return rc


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "jobs"):
        # resolved before any work starts, so a bad REPRO_JOBS is a
        # usage error (exit 2) rather than a run failing midway
        try:
            args.jobs = _resolve_jobs(args)
        except ValueError as exc:
            print(f"{args.command}: {exc}", file=sys.stderr)
            return 2
    try:
        return _run(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        # a failed experiment/sweep must fail the invoking script, not
        # dump a traceback and exit 0 or crash with 1-of-N noise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
