"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py            # every workload in turn, seed 1

For one workload, the last line of standard output is one JSON object
with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it repeat every metric with its unit, plus the run's
validity figures (host reference loop, CPU steal, failure ratio, server
exit).
The exit code is 1 when an output check fails, 2 when the run cannot
produce metrics at all (for example, no ``src/repro`` to run).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Runnable, but not in BENCHMARK.json, so never gated: its cached
#: requests take under a millisecond and its figures followed host
#: drift past every bound (see README.md).
UNGATED_WORKLOADS = ("serve-warm",)
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + list(UNGATED_WORKLOADS)


def cpu_ticks() -> tuple[int, int]:
    """``(stolen, total)`` CPU ticks of the whole machine so far, from
    ``/proc/stat``: steal is time the hypervisor ran someone else on
    this machine's virtual CPUs."""
    with open("/proc/stat", encoding="ascii") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: each in turn, in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return _run_all(args)

    src = ROOT / "src" / "repro" / "__init__.py"
    if not src.is_file():
        print(f"perfbench: no program to measure ({src} is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    from perfbench import figures, hostref, service

    # the host's speed as the run starts, reported so drift shows
    ref_ms = hostref.loop_ms()
    stolen0, total0 = cpu_ticks()
    trace = bool(args.trace)
    try:
        if args.workload == "figures":
            outcome = figures.run(args.seconds, trace, out_dir)
        elif args.workload == "serve-cold":
            outcome = service.run_cold(args.seed, args.seconds, trace, out_dir)
        else:
            outcome = service.run_warm(args.seed, args.seconds, trace, out_dir)
    except service.RunFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    stolen1, total1 = cpu_ticks()
    steal_pct = 100.0 * (stolen1 - stolen0) / max(1, total1 - total0)

    kind = "per_layer" if trace else "end_to_end"
    units = _units(kind)
    values = dict(outcome.layers if trace else outcome.e2e)
    if trace:
        values["host.ref_loop_ms"] = ref_ms
    missing = sorted(set(units) - set(values))
    if missing:
        outcome.problems.append(f"metrics not produced: {missing}")
    if args.workload in UNGATED_WORKLOADS:
        outcome.notes.append(f"{args.workload} is not in BENCHMARK.json: nothing here is gated")
    for note in outcome.notes:
        print(f"# {note}")
    print(f"# host.ref_loop_ms = {ref_ms:.3f} ms (never gated)")
    print(f"# host.steal_pct = {steal_pct:.2f} % of CPU time over the run (never gated)")
    for name in units:
        if name in values:
            print(f"{args.workload:>11}  {name:<34} {values[name]:>14.6g} {units[name]}")
    if not trace:
        for name, (value, unit) in outcome.reported.items():
            print(f"{args.workload:>11}  {name:<34} {value:>14.6g} {unit}  (not gated)")
    for problem in dict.fromkeys(outcome.problems):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = outcome.correct
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units if name in values
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process; the worst exit code."""
    import subprocess

    worst = 0
    for workload in WORKLOADS:
        rc = subprocess.call([
            sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
        ])
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    sys.exit(main())
