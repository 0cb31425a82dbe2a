"""Multicast planning as a service: boot, load, observe.

Starts the schedule-planning HTTP service in-process (on an ephemeral
loopback port), sends it a Zipf-skewed stream of schedule requests
with a short urllib loop, and then reads back what both sides saw:
client-side throughput and latency quantiles, the server's
coalescing/admission counters, and per-client usage accounting from
``/v1/usage``.

The same service runs standalone via ``python -m repro serve``; the
repository benchmark drives it with ``python3 perfbench/run.py
--workload serve-warm``.  See docs/SERVICE.md for the API and
capacity-planning notes.

Run:  PYTHONPATH=src python examples/service_load.py
"""

from __future__ import annotations

import json
import random
import time
import urllib.request

from repro.analysis.workloads import random_destination_sets
from repro.service import ServiceConfig, ServiceThread


def post(base: str, doc: dict, client: str) -> dict:
    req = urllib.request.Request(
        base + "/v1/schedule", data=json.dumps(doc).encode(), method="POST",
        headers={"X-Client-Id": client},
    )
    with urllib.request.urlopen(req) as resp:
        return json.loads(resp.read())


def main() -> None:
    # -- 1. the service, hosted on a background event-loop thread --------
    with ServiceThread(ServiceConfig(port=0)) as svc:
        base = f"http://{svc.host}:{svc.port}"
        print(f"service up at {base}")

        # -- 2. one explicit request/response round trip -----------------
        doc = {"algorithm": "wsort", "n": 6, "source": 0,
               "destinations": [1, 3, 5, 9, 17, 33]}
        body = post(base, doc, "example")
        print(f"one schedule: source={body['source']}, "
              f"max step {body['result']['max_step']}, key {body['key'][:12]}...")

        # -- 3. a skewed load run: hot keys are built once, then hit -----
        keys = random_destination_sets(6, 8, 12, seed=7)
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(keys))]
        rng = random.Random(11)
        latencies_ms = []
        hits = 0
        start = time.perf_counter()
        for dests in rng.choices(keys, weights=weights, k=300):
            sent = time.perf_counter()
            body = post(base, {"algorithm": "wsort", "n": 6, "destinations": dests},
                        "example-load")
            latencies_ms.append((time.perf_counter() - sent) * 1e3)
            hits += body["source"] == "cache"
        wall = time.perf_counter() - start
        latencies_ms.sort()
        p50 = latencies_ms[len(latencies_ms) // 2]
        p99 = latencies_ms[int(len(latencies_ms) * 0.99)]
        print("\n== client side (300 requests, 12 keys, zipf 1.1) ==")
        print(f"throughput: {len(latencies_ms) / wall:.0f} req/s over {wall:.2f} s")
        print(f"latency:    p50 {p50:.2f} ms, p99 {p99:.2f} ms")
        print(f"cache:      hit ratio {hits / len(latencies_ms):.3f} "
              f"({hits} hits, {len(latencies_ms) - hits} builds)")

        # -- 4. what the server itself measured --------------------------
        registry = svc.app.metrics
        print("\n== server counters ==")
        for name in ("requests", "builds", "coalesced", "rejected_rate"):
            value = registry.counter(f"sim.service.{name}").value
            print(f"sim.service.{name:<14} {value:g}")
        print(f"repository hit ratio: {svc.app.planner.cache.hit_ratio():.3f}")

        with urllib.request.urlopen(base + "/v1/usage") as resp:
            usage = json.loads(resp.read())
        print("\n== per-client usage (/v1/usage) ==")
        for client, stats in usage["clients"].items():
            print(f"{client:<14} requests={stats['requests']:<5} "
                  f"cache_hits={stats['cache_hits']:<5} builds={stats['builds']}")
    print("\nservice drained cleanly")


if __name__ == "__main__":
    main()
