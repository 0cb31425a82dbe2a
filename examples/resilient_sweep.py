"""Resilient sweeps: resume from the point log, whatever state it is in.

Simulates the failures a long paper-parity sweep actually meets -- a
run killed halfway through, a torn log tail, a corrupted record on
disk -- and shows that every recovery path yields tables
byte-identical to an undisturbed run.  See docs/RESILIENCE.md.

Run:  PYTHONPATH=src python examples/resilient_sweep.py
"""

from __future__ import annotations

import json
import os
import tempfile

from repro.analysis.experiments import run_sweep
from repro.obs.metrics import MetricsRegistry
from repro.parallel import WatchdogConfig, load_journal
from repro.parallel.journal import POINT_LOG


def _served(registry: MetricsRegistry) -> float:
    return registry.snapshot().get("sim.parallel.points_served", {}).get("value", 0)


def main() -> None:
    ids = ["fig11"]
    reference = run_sweep(ids, fast=True)["fig11"]
    print("reference:   fig11 fast sweep, undisturbed, no cache dir")

    with tempfile.TemporaryDirectory(prefix="repro-resilient-") as cache_dir:
        log_path = os.path.join(cache_dir, POINT_LOG)

        # A sweep with a cache dir logs every computed point durably.
        run_sweep(ids, fast=True, cache_dir=cache_dir)
        checkpoints = len(load_journal(log_path).results)
        print(f"logged:      {log_path}, {checkpoints} points checkpointed")

        # Simulate a crash: keep the first 4 records, as if the process
        # had been SIGKILLed mid-sweep, and leave the next one torn in
        # half, as if it had been mid-write.
        with open(log_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(log_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:4] + [lines[4][: len(lines[4]) // 2]])

        # Re-running the same sweep with the same cache dir resumes it.
        registry = MetricsRegistry()
        resumed = run_sweep(ids, fast=True, cache_dir=cache_dir, metrics=registry)["fig11"]
        assert resumed.to_json() == reference.to_json()
        print(
            f"resumed:     {_served(registry):g} points served from the log, the torn "
            "record recomputed -- table identical  OK"
        )

        # Forge one record's result; its checksum no longer matches, so
        # the next run skips it and recomputes rather than trusting it.
        with open(log_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        record = json.loads(lines[0])
        record["result"] = {"forged": True}
        lines[0] = json.dumps(record) + "\n"
        with open(log_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        registry = MetricsRegistry()
        healed = run_sweep(ids, fast=True, cache_dir=cache_dir, metrics=registry)["fig11"]
        assert healed.to_json() == reference.to_json()
        print(
            "log chaos:   the forged record skipped and recomputed -- table "
            f"identical  OK ({_served(registry):g} of {checkpoints} points served)"
        )

    wd = WatchdogConfig()
    print(
        "watchdog:    guards every parallel sweep; tune via run_sweep(..., "
        "watchdog=WatchdogConfig()) or `sweep --soft-timeout-s/--hard-timeout-s`: "
        f"soft {wd.soft_timeout_s:g} s / hard {wd.hard_timeout_s:g} s heartbeat "
        f"timeouts, {wd.retry.max_retries} requeue rounds under capped exponential "
        "backoff"
    )


if __name__ == "__main__":
    main()
