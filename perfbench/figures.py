"""The ``figures`` workload: the paper-reproduction sweep in a child.

The child (:mod:`perfbench.sweep_child`) calls
``repro.analysis.experiments.run_sweep`` over Figures 9-14, the
concurrent-multicast ablation and the two fault figures, in fast mode,
with ``jobs`` = the CPUs this process may use and a fresh disk cache
per sweep.  The figures use their own fixed seeds, so ``--seed`` does
not change this workload's inputs.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from pathlib import Path
from statistics import mean, median

from perfbench import hostref, stats
from perfbench.procs import Child
from perfbench.service import SETUP_ROUNDS, Outcome, RunFailure

#: A sweep child that has not exited by then is killed (run fails).
CHILD_TIMEOUT_S = 170.0
#: An untraced run does ``--seconds`` / SWEEP_S sweeps, to the nearest
#: whole one (5 at 50 s).  SWEEP_S is about what one sweep took at
#: jobs=2 on a 2-vCPU VM; the count does not follow the host's speed,
#: so a faster sweep changes the timings and not how many are taken.
SWEEP_S = 10.0


def _launch(out_dir: Path, tag: str, args: list[str]) -> Child:
    """Start a sweep child and wait for its ``ready`` line."""
    child = Child(["-m", "perfbench.sweep_child", *args], label="sweep child",
                  stderr_path=out_dir / f"sweep-{tag}.stderr")
    watchdog = threading.Timer(60.0, child.proc.kill)
    watchdog.start()
    try:
        line = child.readline()
    finally:
        watchdog.cancel()
    if line.strip() != "ready":
        rc, err, _ = child.finish(None, 10.0)
        raise RunFailure(f"sweep child did not start (rc={rc}): {err.strip()[-500:]}")
    return child


def run(seconds: float, trace: bool, out_dir: Path) -> Outcome:
    tmp = out_dir / "tmp"
    tmp.mkdir()
    result_path = out_dir / "sweep.json"
    sweeps = max(1, round(seconds / SWEEP_S))
    work = ["--sweeps", str(sweeps), "--out", str(result_path), "--tmp", str(tmp)]
    if trace:
        work.append("--trace")
    problems: list[str] = []
    setup_times: list[float] = []
    try:
        # every round measures launch -> ready; only the last one sweeps
        for round_no in range(SETUP_ROUNDS):
            last = round_no == SETUP_ROUNDS - 1
            child = _launch(out_dir, str(round_no), work if last else ["--setup-only"])
            setup_times.append(time.perf_counter() - child.launched)
            rc, err, found = child.finish(None, CHILD_TIMEOUT_S)
            problems.extend(found)
            if rc != 0:
                raise RunFailure(f"sweep child exited {rc}: {err.strip()[-800:]}")
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems.extend(result["problems"])
    walls = result["walls"]
    if not walls:
        raise RunFailure(f"no sweep completed: {problems}")
    attempted = max(1, result["points"])
    points_per_sweep = result["points"] / result["sweeps"]
    # over the whole timed phase, so a slow stretch of the host weighs
    # by its length rather than moving the median sweep
    throughput = points_per_sweep * len(walls) / sum(walls)
    blocks = result["ref_blocks"]
    # each sweep in reference loops timed next to it
    in_refs = [w * 1e3 / ref for w, ref in zip(walls, hostref.stretch_refs(blocks))]
    e2e = {
        "setup_s": median(setup_times),
        "peak_rss_mb": result["peak_rss_mb"],
        "p50_ref": median(in_refs),
        "throughput_ref": points_per_sweep * len(walls) / sum(in_refs),
    }
    reported = {
        "p50_ms": (median(walls) * 1e3, "ms"),
        "throughput": (throughput, "1/s"),
        "sweep_s": (median(walls), "s"),
        "host.ref_ms": (mean(loop for b in blocks for loop in b), "ms"),
        "fail_ratio": (stats.fail_ratio(attempted, result["failed"]), "ratio"),
    }
    notes = [
        f"{result['sweeps']} sweep(s), {result['points']} points in all, jobs={result['jobs']}; "
        "untraced sweep walls: " + ", ".join(f"{w:.3f} s" for w in walls),
        f"{result['failed']} failed point(s)",
        "each sweep: 7 tables compared with benchmarks/results, 2 with recorded digests",
    ]
    return Outcome(e2e, result.get("layers", {}), attempted, result["failed"], problems, notes,
                   reported)
