"""Per-layer metrics from a traced run.

Spans are recorded on :class:`repro.obs.trace_spans.Tracer` objects,
held in memory and written out once, as Chrome trace JSON, at the end
of the run.  A layer is reported by the self time of its spans (a
span's duration minus what its children cover), summed or averaged
over the run.  Span names follow the ones the program emits during a
traced sweep, so the rollup below serves every workload:

==========================  =============================================
span name                   layer
==========================  =============================================
simulate, simulate.*        simulator (``simulate.faults`` is the
                            benchmark's span over the fault driver)
schedule.build              multicast tree build
schedule.greedy             multicast greedy step scheduling
verify.contention           core.contention (Definition 4)
cache.disk_read/_write      parallel.cache disk layer
cache.get                   parallel.cache lookup (service replay)
parallel.chunk              parallel.engine worker busy time
service.parse/.encode       service.protocol
service.handle              service.app (in-process, value cached)
==========================  =============================================
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from perfbench import library, stats

SIM_SPANS = ("simulate", "simulate.concurrent", "simulate.faults")


def layer_names() -> list[str]:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"]]


def span_dicts(tracers: Iterable) -> list[dict]:
    return [s.to_dict() for t in tracers for s in t.spans]


def write_trace(path: Path, spans: list[dict]) -> None:
    from repro.obs.exporters import write_chrome_trace

    write_chrome_trace(path, spans)


def _mean_us(agg: Mapping[str, Mapping[str, float]], name: str) -> float:
    a = agg.get(name)
    return a["self_us"] / a["count"] if a and a["count"] else 0.0


def _sum_s(agg: Mapping[str, Mapping[str, float]], *names: str) -> float:
    return sum(agg[n]["self_us"] for n in names if n in agg) / 1e6


def kernel_layers(spans: Sequence[Mapping]) -> dict[str, float]:
    """Every per-layer metric that is read off span self times."""
    agg = stats.rollup(spans)
    run_s = _sum_s(agg, *SIM_SPANS)
    runs = sum(agg[n]["count"] for n in SIM_SPANS if n in agg)
    events = sum(
        s.get("attrs", {}).get("events", 0) for s in spans if s["name"] in SIM_SPANS
    )
    return {
        "simulator.run_s": run_s,
        "simulator.run_us": run_s * 1e6 / runs if runs else 0.0,
        "simulator.events": float(events),
        "simulator.events_per_s": events / run_s if run_s else 0.0,
        "core.contention.verify_us": _mean_us(agg, "verify.contention"),
        "multicast.build_s": _sum_s(agg, "schedule.build"),
        "multicast.build_us": _mean_us(agg, "schedule.build"),
        "multicast.greedy_s": _sum_s(agg, "schedule.greedy"),
        "multicast.greedy_us": _mean_us(agg, "schedule.greedy"),
        "parallel.cache.disk_s": _sum_s(agg, "cache.disk_read", "cache.disk_write"),
        "parallel.cache.get_us": _mean_us(agg, "cache.get") or _mean_us(agg, "cache.disk_read"),
        "service.protocol.parse_us": _mean_us(agg, "service.parse"),
        "service.protocol.encode_us": _mean_us(agg, "service.encode"),
        "service.app.handle_us": _mean_us(agg, "service.handle"),
    }


def engine_layers(snapshot: Mapping[str, Mapping], spans: Sequence[Mapping],
                  jobs: int) -> dict[str, float]:
    """parallel.engine and parallel.cache metrics of a traced sweep,
    from ``run_sweep(metrics=...)``'s ``sim.parallel.*`` snapshot."""

    def value(name: str) -> float:
        return float(snapshot.get(f"sim.parallel.{name}", {}).get("value", 0.0))

    dispatch_s = float(snapshot.get("sim.parallel.dispatch_wall", {}).get("total_seconds", 0.0))
    busy_s = sum(s["end_us"] - s["start_us"] for s in spans
                 if s["name"] == "parallel.chunk" and s.get("end_us") is not None) / 1e6
    hits, misses = value("cache_hits"), value("cache_misses")
    return {
        "parallel.engine.points": value("points_total"),
        "parallel.engine.chunks": value("chunks"),
        "parallel.engine.dispatch_s": dispatch_s,
        "parallel.engine.busy_ratio": busy_s / (dispatch_s * jobs) if dispatch_s else 0.0,
        "parallel.engine.worker_failures": value("worker_failures"),
        "parallel.engine.fallback_points": value("fallback_points"),
        "parallel.cache.hits": hits,
        "parallel.cache.misses": misses,
        "parallel.cache.puts": value("cache_puts"),
        "parallel.cache.disk_hits": value("cache_disk_hits"),
        "parallel.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def assemble(*parts: Mapping[str, float]) -> dict[str, float]:
    """Every per-layer metric; layers a workload does not run read 0."""
    out = {name: 0.0 for name in layer_names()}
    for part in parts:
        out.update(part)
    return out


# -- service replay ----------------------------------------------------


def _replay_one(call, source: str, cache, span) -> tuple[bytes, str, dict]:
    """What the server did for one request: parse, a cache lookup,
    the kernels when the server built the value, then encode."""
    req = library.parse(call.path, call.body, span)
    key = library.cache_key(req)
    with span("cache.get"):
        value = cache.get(key)
    if source == "build":
        value = library.compute(req, span)
        cache.put(key, value)
    return library.encode(req, key, source, value, span), key, value


def replay_service(calls, samples, sent: list[int], source: str,
                   server_side: Mapping[str, float], seed: int, trace_path: Path,
                   lag_ms: float, problems: list[str]) -> dict[str, float]:
    """Replay a service run's timed requests answered 200 (``sent``)
    in-process under spans.

    ``source`` is what the server reported for these requests:
    ``"build"`` (cold) or ``"cache"`` (warm, whose values are put in a
    cache first, outside any span).  Each request gets its own tracer,
    so its spans share one trace id, and every replayed response must
    equal the server's bytes.  A second pass times
    ``ServiceApp.handle`` on an in-process app whose cache already
    holds every value.
    """
    from repro.obs.trace_spans import Tracer, derive_trace_id
    from repro.parallel.cache import ScheduleCache

    cache = ScheduleCache()
    if source == "cache":
        for first in {calls[i].body: i for i in sent}.values():
            req = library.parse(calls[first].path, calls[first].body)
            cache.put(library.cache_key(req), library.compute(req))
    tracers = []
    values: dict[str, dict] = {}
    for i in sent:
        tracer = Tracer(trace_id=derive_trace_id("perfbench", seed, i), label="request")
        tracers.append(tracer)
        with tracer.span("request", index=i, path=calls[i].path):
            expect, key, value = _replay_one(calls[i], source, cache, tracer.span)
        values[key] = value
        if samples.body[i] != expect:
            problems.append(f"request {i} ({calls[i].path}): response differs from the library")

    handle_tracer = Tracer(trace_id=derive_trace_id("perfbench", seed, "handle"), label="handle")
    _replay_handle(calls, sent, values, handle_tracer)
    overhead = _overhead_ratio(calls, sent[:64], source, cache, tracers)
    tracers.append(handle_tracer)
    spans = span_dicts(tracers)
    write_trace(trace_path, spans)

    layers = kernel_layers(spans)
    layers.update({
        "parallel.cache.hits": server_side["cache_hits"],
        "parallel.cache.misses": server_side["cache_misses"],
        "parallel.cache.puts": server_side["cache_puts"],
        "parallel.cache.disk_hits": server_side["cache_disk_hits"],
        "parallel.cache.hit_ratio": server_side["hit_ratio"],
        "service.planner.builds": server_side["builds"],
        "service.planner.coalesced": server_side["coalesced"],
        "service.planner.build_ms": server_side["build_ms"],
        "service.planner.hit_ratio": server_side["hit_ratio"],
        "service.protocol.bytes_out": server_side["bytes_out"],
        "service.app.server_ms": server_side["server_ms"],
        "service.http.overhead_ms": server_side["client_ms"] - server_side["server_ms"],
        "service.admission.rejected": server_side["rejected"],
        "loadgen.lag_p99_ms": lag_ms,
        "obs.trace_overhead_ratio": overhead,
    })
    return assemble(layers)


def _replay_handle(calls, sent, values, tracer) -> None:
    import asyncio

    from repro.service.app import ServiceApp, ServiceConfig
    from repro.service.http import Request

    app = ServiceApp(ServiceConfig(port=0))
    for key, value in values.items():
        app.planner.cache.put(key, value)

    async def drive() -> None:
        for i in sent:
            call = calls[i]
            req = Request("POST", call.path, {}, {}, call.body, "127.0.0.1:0")
            with tracer.span("service.handle", index=i):
                await app.handle(req)

    try:
        asyncio.run(drive())
    finally:
        app.planner.close()


def _overhead_ratio(calls, subset: list[int], source: str, cache, tracers) -> float:
    """Traced over untraced wall time of the same replayed requests:
    ``subset`` is replayed once more without spans and compared with
    the ``request`` spans recorded for it."""
    traced_us = {
        s.attrs["index"]: s.duration_us
        for t in tracers for s in t.spans if s.name == "request"
    }
    subset = [i for i in subset if i in traced_us]
    t0 = time.perf_counter()
    for i in subset:
        _replay_one(calls[i], source, cache, library.no_span)
    untraced_us = (time.perf_counter() - t0) * 1e6
    return sum(traced_us[i] for i in subset) / untraced_us if untraced_us else 1.0
