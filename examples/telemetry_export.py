"""End-to-end tour of the observability layer (repro.obs).

Runs a handful of operations with (1) a shared metrics registry and
(2) a JSONL telemetry sink, then (3) replays one multicast with channel
tracing, and shows what each surface collected: aggregated metrics,
parsed RunRecords, and channel-level rollups.

Run:  PYTHONPATH=src python examples/telemetry_export.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import HypercubeCollectives, MetricsRegistry
from repro.multicast.registry import get_algorithm
from repro.obs import capture, channel_rollup
from repro.obs.sink import read_jsonl
from repro.simulator import NCUBE2, simulate_multicast
from repro.multicast.ports import ALL_PORT


def main() -> None:
    # -- 1. one registry aggregating across many operations -------------
    registry = MetricsRegistry()
    comm = HypercubeCollectives(n=6, algorithm="wsort", metrics=registry)

    path = Path(tempfile.mkdtemp()) / "runs.jsonl"
    with capture(str(path)):  # equivalently: REPRO_TELEMETRY=runs.jsonl
        comm.broadcast(root=0, size=4096)
        comm.scatter(root=0, block_size=1024)
        comm.multicast(source=0, destinations=[1, 5, 9, 63], size=4096)

    print("== aggregated metrics (one registry, three operations) ==")
    snap = registry.snapshot()
    print(f"runs:            {snap['sim.runs']['value']:.0f}")
    print(f"events:          {snap['sim.events']['value']:.0f}")
    print(f"worms:           {snap['sim.worms']['value']:.0f}")
    delays = snap["sim.delay_us"]
    print(
        f"delay histogram: {delays['count']} observations, "
        f"mean {delays['mean']:.0f} us, max {delays['max']:.0f} us"
    )

    # -- 2. telemetry: one RunRecord JSON line per operation -------------
    print("\n== telemetry records (parsed back from JSONL) ==")
    for rec in read_jsonl(str(path)):
        where = rec.extra.get("completion_us", rec.extra.get("max_delay_us", 0.0))
        print(
            f"{rec.kind:<10} {rec.algorithm or '-':<22} "
            f"n={rec.n}  events={rec.events}  finish={where:.0f} us"
        )

    # -- 3. channel rollup on a single traced replay ---------------------
    print("\n== traced replay (channel rollup) ==")
    tree = get_algorithm("wsort").build_tree(6, 0, [1, 3, 5, 9, 17, 33, 63])
    res = simulate_multicast(tree, size=4096, timings=NCUBE2, ports=ALL_PORT, trace=True)
    print(f"events fired:  {res.events}")
    rollup = channel_rollup(res.network, horizon=res.completion_time, top=3)
    print(f"channels used: {rollup['channels_used']}")
    hot = ", ".join(
        f"({h['node']:06b}, dim {h['dim']}) {h['busy_us']:.0f} us"
        for h in rollup["hotspot_arcs"]
    )
    print(f"hotspot arcs:  {hot}")
    print(f"per-dim busy:  {rollup['per_dimension_busy_us']}")
    blocked = rollup["per_dimension_blocked_us"]
    print(f"per-dim blocked: {blocked or 'none (contention-free)'}")


if __name__ == "__main__":
    main()
