"""Command-line interface: ``repro-hypercube`` / ``python -m repro``.

Subcommands:

- ``list`` -- show registered algorithms and experiments.
- ``tree`` -- build and print one multicast tree and its schedule.
- ``experiment`` -- run a figure reproduction and print its table.
- ``collective`` -- time one collective operation.
- ``stats`` -- replay one multicast fully instrumented (metrics,
  profiling probes, channel rollups) and print/export the telemetry.
- ``faults`` -- sweep delivery time and delivery ratio against the
  number of failed links, oblivious (abort + retry) or repaired
  (fault-aware detour schedules); see docs/FAULTS.md.
- ``sweep`` -- run several figure reproductions under one parallel
  sweep context: shared worker configuration, shared schedule cache,
  merged telemetry; see docs/PERFORMANCE.md.  ``--journal-dir``
  checkpoints every completed point; ``--resume`` picks a crashed or
  interrupted run back up bit-identically; the hung-worker watchdog
  guards every parallel sweep, and ``--soft-timeout-s`` /
  ``--hard-timeout-s`` tune it (see docs/RESILIENCE.md).
  ``--fabric-port`` distributes the points over TCP worker hosts
  instead of local workers (the sweep falls back to local workers if
  every remote one dies).
- ``worker`` -- serve one sweep-fabric worker link: connect to a
  coordinator started with ``sweep --fabric-port``, execute its
  chunks, heartbeat, exit on shutdown.  Exits ``0`` on an orderly
  fleet shutdown, ``1`` when no coordinator is reachable or the link
  drops while idle, and -- beyond the standard contract -- ``70``
  when the coordinator vanishes mid-chunk (the chunk is orphaned, so
  supervisors can tell lost work from a finished fleet).
- ``cache`` -- ``verify`` (audit a schedule-cache directory for
  corrupt/stale entries, optionally ``--repair``-quarantining them)
  and ``gc`` (drop quarantined entries and stray temp files).
- ``trace`` -- run experiments under the span tracer and export the
  timeline as Chrome trace-event JSON (loadable in Perfetto /
  ``chrome://tracing``), optionally with a Prometheus text dump of the
  metrics registry; see docs/TRACING.md.
- ``serve`` -- run the schedule-planning HTTP service (coalescing,
  admission control, graceful drain on SIGTERM); see docs/SERVICE.md.
  Drive it with ``python -m repro.service.loadgen``.
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
``--parallel`` / ``--jobs N`` / ``--cache-dir PATH`` to fan points
across worker processes with content-addressed schedule caching;
results are bit-identical to serial runs.  Both also accept
``--trace PATH`` to write a Chrome trace-event sidecar of the run
(worker spans included); the figures themselves are unchanged by it.

Every subcommand exits nonzero on failure: ``1`` for a runtime error
(the message goes to stderr), ``2`` for bad arguments, ``130`` on
Ctrl-C.  ``report`` exits ``1`` when any figure check FAILs.

Benchmarking is not a subcommand: the repository benchmark is
``perfbench/`` (``python3 perfbench/run.py``; see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Sequence

from repro.analysis.experiments import (
    EXPERIMENTS,
    run_experiment,
    run_sweep,
    sweep_run_id,
)
from repro.collectives.api import HypercubeCollectives
from repro.core.paths import ResolutionOrder
from repro.multicast.ports import ALL_PORT, ONE_PORT, k_port
from repro.multicast.registry import ALGORITHMS, get_algorithm
from repro.obs import sink as telemetry_sink
from repro.simulator.params import NCUBE2
from repro.simulator.run import simulate_multicast

__all__ = ["main"]


def _with_telemetry(args: argparse.Namespace, fn: Callable):
    """Run ``fn`` with ``--telemetry PATH`` installed as the JSONL sink."""
    path = getattr(args, "telemetry", None)
    if not path:
        return fn()
    previous = telemetry_sink.configure(path)
    try:
        return fn()
    finally:
        telemetry_sink.configure(previous)


def _with_trace(args: argparse.Namespace, fn: Callable):
    """Run ``fn`` under a fresh tracer when ``--trace PATH`` was given,
    exporting the Chrome trace-event JSON afterwards.  With ``--json``
    the note goes to stderr so stdout stays a clean document."""
    path = getattr(args, "trace", None)
    if not path:
        return fn()
    from repro.obs.exporters import write_chrome_trace
    from repro.obs.trace_spans import Tracer, trace_capture

    with trace_capture(Tracer(label=args.command)) as tracer:
        result = fn()
    events = write_chrome_trace(path, tracer)
    out = sys.stderr if getattr(args, "json", False) else sys.stdout
    print(f"trace {tracer.trace_id}: {events} event(s) written to {path}", file=out)
    return result


def _parse_ports(text: str):
    if text == "all":
        return ALL_PORT
    if text == "one" or text == "1":
        return ONE_PORT
    return k_port(int(text))


def _parse_dests(text: str) -> list[int]:
    return [int(tok, 0) for tok in text.replace(",", " ").split()]


def _cmd_list(_args: argparse.Namespace) -> int:
    print("algorithms:")
    for name in sorted(ALGORITHMS):
        print(f"  {name}")
    print("experiments:")
    for exp in EXPERIMENTS.values():
        print(f"  {exp.id:<22} {exp.title} ({exp.description})")
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    alg = get_algorithm(args.algorithm)
    dests = _parse_dests(args.destinations)
    order = ResolutionOrder.ASCENDING if args.ascending else ResolutionOrder.DESCENDING
    tree = alg.build_tree(args.n, args.source, dests, order)
    ports = _parse_ports(args.ports)
    sched = tree.schedule(ports)
    width = args.n
    print(f"{alg.name} multicast in a {args.n}-cube, {ports.name}")
    print(f"source {args.source:0{width}b}, {len(dests)} destination(s)")
    for send in tree.sends:
        step = sched.step_of(send)
        print(f"  step {step}: {send.src:0{width}b} -> {send.dst:0{width}b}")
    print(f"steps: {sched.max_step}   tree depth: {tree.depth()}   hops: {tree.total_hops()}")
    report = sched.check_contention()
    print(f"contention check: {report.summary()}")
    if args.simulate or args.timeline:
        res = simulate_multicast(tree, args.size, NCUBE2, ports, trace=args.timeline)
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
        return max(1, args.jobs)
    if getattr(args, "parallel", False) or getattr(args, "fabric_port", None) is not None:
        from repro.parallel.engine import default_jobs

        return default_jobs()
    return None


def _print_parallel_summary(registry, file=None) -> None:
    """One-line ``sim.parallel.*`` digest after a parallel run."""
    snap = registry.snapshot()

    def val(name: str) -> float:
        return snap.get(f"sim.parallel.{name}", {}).get("value", 0)

    wall = snap.get("sim.parallel.dispatch_wall", {}).get("total_seconds", 0.0)
    print(
        f"parallel: {val('points_total'):g} point(s), "
        f"{val('points_remote'):g} remote, "
        f"cache {val('cache_hits'):g} hit(s) / {val('cache_misses'):g} miss(es), "
        f"{val('worker_failures'):g} worker failure(s), "
        f"dispatch {wall:.2f} s",
        file=file if file is not None else sys.stdout,
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    table = _with_trace(
        args,
        lambda: _with_telemetry(
            args,
            lambda: run_experiment(
                args.id, fast=not args.full, jobs=args.jobs, cache_dir=args.cache_dir
            ),
        ),
    )
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
    -> the sweep's WatchdogConfig (ValueError on a bad value)."""
    from repro.parallel.resilience import WatchdogConfig

    base = WatchdogConfig.from_env()
    soft = args.soft_timeout_s if args.soft_timeout_s is not None else base.soft_timeout_s
    hard = args.hard_timeout_s if args.hard_timeout_s is not None else base.hard_timeout_s
    return WatchdogConfig(
        soft_timeout_s=soft,
        hard_timeout_s=max(hard, soft),
        retry=base.retry,
    )


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


def _print_fabric_summary(registry, file=None) -> None:
    """One-line ``sim.fabric.*`` digest after a fabric sweep."""
    snap = registry.snapshot()

    def val(name: str) -> float:
        return snap.get(f"sim.fabric.{name}", {}).get("value", 0)

    print(
        f"fabric: {val('workers_joined'):g} worker(s) joined, "
        f"{val('chunks_completed'):g} chunk(s) remote "
        f"({val('points_remote'):g} point(s)), "
        f"{val('hosts_lost'):g} host(s) lost, "
        f"{val('requeued_chunks'):g} chunk(s) requeued, "
        f"degraded to local {val('degraded_to_local'):g} time(s)",
        file=file if file is not None else sys.stdout,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.obs.metrics import MetricsRegistry

    ids = args.ids or sorted(EXPERIMENTS)
    unknown = [exp_id for exp_id in ids if exp_id not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    resume = args.resume is not None
    if resume and args.journal_dir is None:
        print("--resume requires --journal-dir", file=sys.stderr)
        return 2
    run_id = sweep_run_id(ids, fast=not args.full) if args.journal_dir else None
    if resume and args.resume != "auto" and args.resume != run_id:
        print(
            f"--resume {args.resume} does not match this sweep (its run id is "
            f"{run_id}); re-issue the command line of the run being resumed",
            file=sys.stderr,
        )
        return 2
    try:
        fabric = _resolve_fabric(args)
        watchdog = _resolve_watchdog(args)
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    registry = MetricsRegistry()
    tables = _with_trace(
        args,
        lambda: _with_telemetry(
            args,
            lambda: run_sweep(
                ids,
                fast=not args.full,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                metrics=registry,
                journal_dir=args.journal_dir,
                resume=resume,
                watchdog=watchdog,
                fabric=fabric,
            ),
        ),
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
        for i, table in enumerate(tables.values()):
            if i:
                print()
            print(table.render(args.precision))
    # with --json stdout is the document alone; the digest goes to stderr
    out = sys.stderr if args.json else sys.stdout
    _print_parallel_summary(registry, file=out)
    if fabric is not None:
        _print_fabric_summary(registry, file=out)
    if args.journal_dir:
        snap = registry.snapshot()
        hits = snap.get("sim.resilience.journal_hits", {}).get("value", 0)
        print(
            f"journal: {args.journal_dir}/{run_id}.jsonl "
            f"(run {run_id}, {hits:g} point(s) served from journal)",
            file=out,
        )
    if args.telemetry:
        print(f"telemetry written to {args.telemetry}", file=out)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.parallel.worker import run_worker

    if args.beat_s <= 0:
        print(f"worker: --beat-s must be positive, got {args.beat_s}", file=sys.stderr)
        return 2
    if args.connect_timeout_s < 0:
        print(
            f"worker: --connect-timeout-s must be >= 0, got {args.connect_timeout_s}",
            file=sys.stderr,
        )
        return 2
    try:
        return run_worker(
            args.connect,
            cache_dir=args.cache_dir,
            label=args.label,
            connect_timeout_s=args.connect_timeout_s,
            beat_s=args.beat_s,
        )
    except ValueError as exc:  # bad HOST:PORT
        print(f"worker: {exc}", file=sys.stderr)
        return 2


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.exporters import write_chrome_trace, write_prometheus
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace_spans import Tracer, trace_capture

    ids = args.ids or sorted(EXPERIMENTS)
    unknown = [exp_id for exp_id in ids if exp_id not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    registry = MetricsRegistry()
    with trace_capture(Tracer(label=f"trace:{','.join(ids)}")) as tracer:
        tables = _with_telemetry(
            args,
            lambda: run_sweep(
                ids, fast=not args.full, jobs=args.jobs, cache_dir=args.cache_dir,
                metrics=registry,
            ),
        )
    events = write_chrome_trace(args.out, tracer)
    print(f"trace {tracer.trace_id}: {events} event(s) written to {args.out}")
    for exp_id, table in tables.items():
        print(f"  {exp_id}: {len(table.x_values)} point(s)")
    if args.prometheus:
        write_prometheus(args.prometheus, registry)
        print(f"metrics written to {args.prometheus}")
    if args.telemetry:
        print(f"telemetry written to {args.telemetry}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json

    from repro.lint import RULES, lint_paths, load_baseline, save_baseline, split_findings
    from repro.lint.baseline import BaselineError

    paths = args.paths or ["src"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"lint: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    unknown_rules = [r for r in (args.select or []) if r.upper() not in RULES]
    if unknown_rules:
        print(
            f"lint: unknown rule(s): {', '.join(unknown_rules)} "
            f"(known: {', '.join(sorted(RULES))})",
            file=sys.stderr,
        )
        return 2
    try:
        baseline = load_baseline(args.baseline)
    except BaselineError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
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

    if not 0 <= args.port <= 65535:
        print(f"serve: port must be in [0, 65535], got {args.port}", file=sys.stderr)
        return 2
    if args.workers < 1:
        print(f"serve: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.deadline_ms <= 0:
        print(f"serve: --deadline-ms must be positive, got {args.deadline_ms}", file=sys.stderr)
        return 2
    try:
        admission = AdmissionConfig(
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            rate_per_client=args.rate,
            burst=args.burst,
        )
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        workers=args.workers,
        admission=admission,
        deadline_ms=args.deadline_ms,
        drain_grace_s=args.drain_grace_s,
    )

    def ready(app) -> None:
        # the line scripts and the CI smoke job wait for (flushed so a
        # piped stdout delivers it before the first request arrives)
        print(f"serving on http://{app.host}:{app.port}", flush=True)

    return asyncio.run(serve_async(config, ready=ready))


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import markdown_report

    figures = args.figures.split(",") if args.figures else None
    doc = markdown_report(fast=not args.full, figures=figures)
    print(doc)
    if "| FAIL |" in doc:
        print("report: one or more figure checks FAILed", file=sys.stderr)
        return 1
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    from repro.parallel.cache import verify_cache_dir

    try:
        audit = verify_cache_dir(args.cache_dir, repair=args.repair)
    except FileNotFoundError:
        print(f"no such cache directory: {args.cache_dir}", file=sys.stderr)
        return 2
    print(f"cache {args.cache_dir}: {audit.ok} intact entr(ies)")
    for damage, names in sorted(audit.damaged.items()):
        action = "quarantined" if args.repair else "found"
        print(f"  {damage}: {len(names)} {action}")
        for name in names[:10]:
            print(f"    {name}")
        if len(names) > 10:
            print(f"    ... and {len(names) - 10} more")
    if audit.quarantined_pending:
        print(f"  {audit.quarantined_pending} previously quarantined entr(ies) pending gc")
    if audit.stray_tmp:
        print(f"  {audit.stray_tmp} stray temp file(s) pending gc")
    if audit.clean:
        print("  no damage")
        return 0
    if args.repair:
        print("damaged entries quarantined; they will recompute on next use")
        return 0
    print("run 'cache verify --repair' to quarantine, then 'cache gc' to reclaim")
    return 1


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    from repro.parallel.cache import gc_cache_dir

    try:
        removed = gc_cache_dir(args.cache_dir)
    except FileNotFoundError:
        print(f"no such cache directory: {args.cache_dir}", file=sys.stderr)
        return 2
    print(
        f"cache {args.cache_dir}: removed {removed['quarantined']} quarantined, "
        f"{removed['tmp']} temp file(s), {removed['empty_dirs']} empty dir(s)"
    )
    return 0


def _cmd_collective(args: argparse.Namespace) -> int:
    return _with_telemetry(args, lambda: _run_collective(args))


def _run_collective(args: argparse.Namespace) -> int:
    comm = HypercubeCollectives(
        args.n, ports=_parse_ports(args.ports), algorithm=args.algorithm
    )
    op = args.op
    if op == "broadcast":
        r = comm.broadcast(args.root, args.size)
        print(f"broadcast: avg {r.avg_delay:.0f} us, max {r.max_delay:.0f} us")
    elif op == "multicast":
        r = comm.multicast(args.root, _parse_dests(args.destinations or "1"), args.size)
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
        print(f"error: cannot read telemetry file {path}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: corrupt telemetry file {path}: {exc}", file=sys.stderr)
        return 2
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
    from repro.obs.probes import default_probes, probe_summaries
    from repro.obs.rollup import channel_rollup
    from repro.obs.sink import JsonlSink, capture

    if args.from_path is not None:
        return _stats_from_file(args)
    if args.n is None or args.destinations is None:
        print("stats: -n and -d/--destinations are required (unless --from)", file=sys.stderr)
        return 2
    alg = get_algorithm(args.algorithm)
    dests = _parse_dests(args.destinations)
    order = ResolutionOrder.ASCENDING if args.ascending else ResolutionOrder.DESCENDING
    tree = alg.build_tree(args.n, args.source, dests, order)
    ports = _parse_ports(args.ports)

    registry = MetricsRegistry()
    probes = default_probes()
    # capture the driver's own record so we can enrich it with probe
    # and channel-level data before exporting
    with capture() as mem:
        res = simulate_multicast(
            tree,
            args.size,
            NCUBE2,
            ports,
            trace=True,
            metrics=registry,
            probes=probes,
            label=f"stats/{alg.name}",
        )
    record = mem.records[0]
    record.extra["probes"] = probe_summaries(probes)
    record.extra["channels"] = channel_rollup(
        res.network, horizon=res.completion_time, top=args.top
    )

    if args.telemetry:
        JsonlSink(args.telemetry).write(record)
    else:
        telemetry_sink.emit(record)  # honor REPRO_TELEMETRY if set

    if args.json:
        print(record.to_json())
        return 0

    width = args.n
    print(f"{alg.name} multicast replay in a {args.n}-cube, {ports.name}, {args.size} bytes")
    print(f"source {args.source:0{width}b}, {len(dests)} destination(s)   run {record.run_id}")
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
    print("probes:")
    cb = record.extra["probes"]["callback_time"]
    print(f"  callback wall time: {cb['total_wall_seconds']:.6f} s")
    for label, entry in cb["by_callback"].items():
        print(f"    {label}: {entry['fires']} fire(s), {entry['wall_seconds']:.6f} s")
    hd = record.extra["probes"]["heap_depth"]
    print(f"  heap depth: peak {hd['peak']} ({hd['scheduled']} scheduled)")
    ca = record.extra["probes"]["cancellation"]
    print(
        f"  cancellation: {ca['cancelled']}/{ca['scheduled']} "
        f"({100.0 * ca['cancellation_rate']:.1f}%)"
    )
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
    if args.telemetry:
        print(f"telemetry written to {args.telemetry}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    return _with_telemetry(args, lambda: _run_faults(args))


def _run_faults(args: argparse.Namespace) -> int:
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
    ks = sorted({int(tok) for tok in args.links.replace(",", " ").split()})
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
    for k in ks:
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
    if args.telemetry:
        print(f"telemetry written to {args.telemetry}")
    return 0 if worst_ratio >= args.min_ratio else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hypercube",
        description="All-port wormhole-routed hypercube multicast (SC'93 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list algorithms and experiments")
    p_list.set_defaults(func=_cmd_list)

    p_tree = sub.add_parser("tree", help="build and print a multicast tree")
    p_tree.add_argument("-n", type=int, required=True, help="cube dimension")
    p_tree.add_argument("-s", "--source", type=int, default=0)
    p_tree.add_argument("-d", "--destinations", required=True, help="e.g. '1,3,5' or '0b101 7'")
    p_tree.add_argument("-a", "--algorithm", default="wsort", choices=sorted(ALGORITHMS))
    p_tree.add_argument("-p", "--ports", default="all", help="'one', 'all', or k")
    p_tree.add_argument("--ascending", action="store_true", help="nCUBE-2 resolution order")
    p_tree.add_argument("--simulate", action="store_true", help="also run the timed simulator")
    p_tree.add_argument("--timeline", action="store_true", help="draw channel-occupancy timeline")
    p_tree.add_argument("--size", type=int, default=4096, help="message bytes for --simulate")
    p_tree.set_defaults(func=_cmd_tree)

    p_exp = sub.add_parser("experiment", help="reproduce a figure")
    p_exp.add_argument("id", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--full", action="store_true", help="paper-parity parameters")
    p_exp.add_argument("--precision", type=int, default=2)
    p_exp.add_argument("--plot", action="store_true", help="also draw an ASCII plot")
    p_exp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_exp.add_argument(
        "--parallel", action="store_true",
        help="fan figure points across worker processes (CPU count / REPRO_JOBS)",
    )
    p_exp.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker process count (implies --parallel; 1 = serial)",
    )
    p_exp.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="content-addressed schedule/delay cache shared across runs and workers",
    )
    p_exp.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="export one RunRecord JSON line per figure point to PATH",
    )
    p_exp.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome trace-event JSON sidecar of the run to PATH",
    )
    p_exp.set_defaults(func=_cmd_experiment)

    p_sweep = sub.add_parser(
        "sweep", help="run several figure reproductions under one parallel context"
    )
    p_sweep.add_argument(
        "ids", nargs="*", metavar="ID",
        help="experiment ids (default: every registered experiment)",
    )
    p_sweep.add_argument("--full", action="store_true", help="paper-parity parameters")
    p_sweep.add_argument("--precision", type=int, default=2)
    p_sweep.add_argument("--json", action="store_true", help="emit one JSON document")
    p_sweep.add_argument(
        "--parallel", action="store_true",
        help="fan points across worker processes (CPU count / REPRO_JOBS)",
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker process count (implies --parallel; 1 = serial)",
    )
    p_sweep.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="content-addressed schedule/delay cache shared across runs and workers",
    )
    p_sweep.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="export merged RunRecord JSON lines (workers included) to PATH",
    )
    p_sweep.add_argument(
        "--journal-dir", default=None, metavar="PATH",
        help="checkpoint every completed point to PATH/<run-id>.jsonl",
    )
    p_sweep.add_argument(
        "--resume", nargs="?", const="auto", default=None, metavar="RUN_ID",
        help="resume a crashed/interrupted run from its journal "
             "(requires --journal-dir; RUN_ID optional, derived from the command)",
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
        "--trace", default=None, metavar="PATH",
        help="write a Chrome trace-event JSON sidecar of the sweep to PATH",
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
        "--cache-dir", default=None, metavar="PATH",
        help="local content-addressed schedule cache for this worker",
    )
    p_worker.add_argument(
        "--label", default=None, metavar="NAME",
        help="worker id shown in fabric telemetry (default: host-pid)",
    )
    p_worker.add_argument(
        "--connect-timeout-s", type=float, default=30.0, metavar="S",
        help="keep retrying the connection this long (workers may start first)",
    )
    p_worker.add_argument(
        "--beat-s", type=float, default=0.25, metavar="S",
        help="heartbeat interval while idle or making progress",
    )
    p_worker.set_defaults(func=_cmd_worker)

    p_trace = sub.add_parser(
        "trace", help="run experiments under the span tracer and export the timeline"
    )
    p_trace.add_argument(
        "ids", nargs="*", metavar="ID",
        help="experiment ids (default: every registered experiment)",
    )
    p_trace.add_argument(
        "-o", "--out", default="trace.json", metavar="PATH",
        help="Chrome trace-event JSON output (default: trace.json)",
    )
    p_trace.add_argument(
        "--prometheus", default=None, metavar="PATH",
        help="also dump the metrics registry in Prometheus text format",
    )
    p_trace.add_argument("--full", action="store_true", help="paper-parity parameters")
    p_trace.add_argument(
        "--parallel", action="store_true",
        help="fan points across worker processes (CPU count / REPRO_JOBS)",
    )
    p_trace.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker process count (implies --parallel; 1 = serial)",
    )
    p_trace.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="content-addressed schedule/delay cache shared across runs and workers",
    )
    p_trace.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="export merged RunRecord JSON lines (workers included) to PATH",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_cache = sub.add_parser(
        "cache", help="inspect and maintain a schedule-cache directory"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cv = cache_sub.add_parser(
        "verify", help="audit every entry's checksum, schema, and key"
    )
    p_cv.add_argument("cache_dir", metavar="PATH")
    p_cv.add_argument(
        "--repair", action="store_true",
        help="quarantine damaged entries (they recompute on next use)",
    )
    p_cv.set_defaults(func=_cmd_cache_verify)
    p_cg = cache_sub.add_parser(
        "gc", help="remove quarantined entries, stray temp files, empty dirs"
    )
    p_cg.add_argument("cache_dir", metavar="PATH")
    p_cg.set_defaults(func=_cmd_cache_gc)

    p_lint = sub.add_parser(
        "lint", help="project-invariant static analysis (REP001..REP006)"
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
    p_lint.add_argument(
        "--parallel", action="store_true",
        help="fan files across worker processes (CPU count / REPRO_JOBS)",
    )
    p_lint.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker process count (implies --parallel; 1 = serial)",
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
        "--cache-dir", default=None, metavar="PATH",
        help="content-addressed schedule cache shared with sweep runs",
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
    p_rep.add_argument("--figures", default=None, help="comma-separated subset, e.g. fig9,fig11")
    p_rep.set_defaults(func=_cmd_report)

    p_col = sub.add_parser("collective", help="time a collective operation")
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
    p_col.add_argument("-n", type=int, required=True)
    p_col.add_argument("--root", type=int, default=0)
    p_col.add_argument("-d", "--destinations", default=None)
    p_col.add_argument("--size", type=int, default=4096)
    p_col.add_argument("-a", "--algorithm", default="wsort", choices=sorted(ALGORITHMS))
    p_col.add_argument("-p", "--ports", default="all")
    p_col.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="export the operation's RunRecord JSON line(s) to PATH",
    )
    p_col.set_defaults(func=_cmd_collective)

    p_stats = sub.add_parser(
        "stats", help="replay one multicast with full instrumentation"
    )
    p_stats.add_argument("-n", type=int, default=None, help="cube dimension")
    p_stats.add_argument("-s", "--source", type=int, default=0)
    p_stats.add_argument(
        "-d", "--destinations", default=None, help="e.g. '1,3,5' or '0b101 7'"
    )
    p_stats.add_argument(
        "--from", dest="from_path", default=None, metavar="PATH",
        help="summarize an exported telemetry JSONL file instead of running",
    )
    p_stats.add_argument("-a", "--algorithm", default="wsort", choices=sorted(ALGORITHMS))
    p_stats.add_argument("-p", "--ports", default="all", help="'one', 'all', or k")
    p_stats.add_argument("--ascending", action="store_true", help="nCUBE-2 resolution order")
    p_stats.add_argument("--size", type=int, default=4096, help="message bytes")
    p_stats.add_argument("--top", type=int, default=5, help="hotspot arcs to show")
    p_stats.add_argument("--json", action="store_true", help="print the RunRecord JSON")
    p_stats.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="export the enriched RunRecord JSON line to PATH",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_faults = sub.add_parser(
        "faults", help="sweep delivery vs failed links on a degraded cube"
    )
    p_faults.add_argument("-n", type=int, required=True, help="cube dimension")
    p_faults.add_argument(
        "--links", default="0,1,2,3", help="failed-link counts to sweep, e.g. '0,2,4'"
    )
    p_faults.add_argument("--seed", type=int, default=9300, help="fault scenario seed")
    p_faults.add_argument("-m", type=int, default=8, help="destinations per multicast")
    p_faults.add_argument("--sets", type=int, default=3, help="destination sets per point")
    p_faults.add_argument("--size", type=int, default=4096, help="message bytes")
    p_faults.add_argument("--retries", type=int, default=3, help="per-send retry cap")
    p_faults.add_argument(
        "--deadline-us", type=float, default=None, help="hard stop (simulated us)"
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
        "--min-ratio", type=float, default=0.0,
        help="exit nonzero if any point's delivery ratio falls below this",
    )
    p_faults.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="export one degraded-multicast RunRecord JSON line per run to PATH",
    )
    p_faults.set_defaults(func=_cmd_faults)
    return parser


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
        return args.func(args)
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
