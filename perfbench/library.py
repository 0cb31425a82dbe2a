"""In-process replay of one planning request through the library.

The service computes each response from public library calls; this
module makes the same calls directly, so the benchmark can check every
response byte for byte and, in a traced run, time each layer under its
own span.  Span names are shared with the spans the program itself
emits during a traced sweep (``schedule.build``, ``schedule.greedy``,
``verify.contention``, ``simulate``), so one rollup serves both.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from typing import Any, Callable, ContextManager

from repro.multicast.registry import get_algorithm
from repro.multicast.verify import verify_tree
from repro.parallel.cache import delay_stats_key, schedule_table_key
from repro.service.planner import verify_table_key
from repro.service.protocol import PlanRequest, encode_json, parse_plan_request
from repro.simulator.run import simulate_multicast

SpanFactory = Callable[..., ContextManager[Any]]


def no_span(_name: str, **_attrs: Any) -> ContextManager[None]:
    return nullcontext()


def parse(path: str, body: bytes, span: SpanFactory = no_span) -> PlanRequest:
    """The request the server parsed; the endpoint (``/v1/<kind>``)
    names the kind."""
    with span("service.parse"):
        return parse_plan_request(json.loads(body), path.rsplit("/", 1)[1])


def cache_key(req: PlanRequest) -> str:
    """The planner's content address for a request."""
    if req.kind == "schedule":
        return schedule_table_key(
            req.algorithm, req.n, req.source, req.destinations, req.ports, req.order
        )
    if req.kind == "simulate":
        return delay_stats_key(
            req.algorithm, req.n, req.source, req.destinations, req.size,
            req.timings, req.ports, req.order,
        )
    return verify_table_key(req)


def compute(req: PlanRequest, span: SpanFactory = no_span) -> dict:
    """The response ``result`` for a request, from the library kernels."""
    with span("schedule.build", n=req.n, m=req.m):
        tree = get_algorithm(req.algorithm).build_tree(
            req.n, req.source, list(req.destinations), req.order
        )
    if req.kind == "simulate":
        with span("simulate", n=req.n, m=req.m) as sp:
            res = simulate_multicast(
                tree, size=req.size, timings=req.timings, ports=req.ports, label=req.algorithm
            )
            if sp is not None:
                sp.set(events=res.events)
        return {
            "avg_delay_us": res.avg_delay,
            "max_delay_us": res.max_delay,
            "total_blocked_us": res.total_blocked_time,
        }
    if req.kind == "verify":
        with span("verify.tree"):
            errors = verify_tree(tree)
    with span("schedule.greedy", n=req.n, m=req.m):
        sched = tree.schedule(req.ports)
    if req.kind == "schedule":
        return {
            "max_step": sched.max_step,
            "dest_steps": {str(d): s for d, s in sorted(sched.dest_steps.items())},
        }
    with span("verify.contention", n=req.n, m=req.m):
        report = sched.check_contention()
    if not report.ok:
        errors.append(report.summary())
    return {"ok": not errors, "errors": errors, "max_step": sched.max_step}


def encode(req: PlanRequest, key: str, source: str, value: dict,
           span: SpanFactory = no_span) -> bytes:
    """The exact response body the service sends for this result."""
    with span("service.encode"):
        return encode_json(
            {"request": req.describe(), "key": key, "source": source, "result": value}
        )
