"""Resilient sweeps: journaled resume and a self-healing cache.

Simulates the failures a long paper-parity sweep actually meets -- a
run killed halfway through, a torn journal tail, a corrupted cache
entry on disk -- and shows that every recovery path yields tables
byte-identical to an undisturbed run.  See docs/RESILIENCE.md.

Run:  PYTHONPATH=src python examples/resilient_sweep.py
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro.analysis.experiments import run_sweep, sweep_run_id
from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    WatchdogConfig,
    gc_cache_dir,
    load_journal,
    verify_cache_dir,
)


def main() -> None:
    ids = ["fig11"]
    reference = run_sweep(ids, fast=True)["fig11"]
    print("reference:   fig11 fast sweep, undisturbed, no journal")

    with tempfile.TemporaryDirectory(prefix="repro-resilient-") as root:
        journal_dir = os.path.join(root, "journal")
        cache_dir = os.path.join(root, "cache")

        # A journaled run checkpoints every completed point durably.
        run_sweep(ids, fast=True, journal_dir=journal_dir, cache_dir=cache_dir)
        run_id = sweep_run_id(ids, fast=True)
        journal_path = os.path.join(journal_dir, f"{run_id}.jsonl")
        checkpoints = len(load_journal(journal_path).results)
        print(f"journaled:   run {run_id}, {checkpoints} points checkpointed")

        # Simulate a crash: keep the header and the first 4 checkpoints,
        # as if the process had been SIGKILLed mid-sweep, and leave the
        # next record torn in half, as if it had been mid-write.
        with open(journal_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        torn = lines[5][: len(lines[5]) // 2]
        with open(journal_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:5] + [torn])

        registry = MetricsRegistry()
        resumed = run_sweep(
            ids, fast=True, journal_dir=journal_dir, cache_dir=cache_dir,
            resume=True, metrics=registry,
        )["fig11"]
        hits = registry.snapshot()["sim.resilience.journal_hits"]["value"]
        assert resumed.to_json() == reference.to_json()
        print(
            f"resumed:     {hits:g} points served from the journal, the torn "
            "record recomputed -- table identical  OK"
        )

        # Corrupt one cache entry on disk; the next read quarantines it
        # and recomputes rather than trusting it or crashing.
        victim = next(
            p for p in sorted(Path(cache_dir).rglob("*.json"))
            if "_quarantine" not in p.parts
        )
        victim.write_text("{torn and unparseable", encoding="utf-8")
        registry = MetricsRegistry()
        healed = run_sweep(
            ids, fast=True, cache_dir=cache_dir, metrics=registry
        )["fig11"]
        bad = registry.snapshot()["sim.resilience.cache_quarantined"]["value"]
        assert healed.to_json() == reference.to_json()
        audit = verify_cache_dir(cache_dir)
        removed = gc_cache_dir(cache_dir)
        print(
            f"cache chaos: {bad:g} damaged entry quarantined and recomputed "
            f"-- table identical  OK (audit clean: {audit.clean}, "
            f"gc dropped {removed['quarantined']} quarantined file(s))"
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
