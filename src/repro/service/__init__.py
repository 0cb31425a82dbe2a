"""Multicast planning as a service.

A stdlib-only asyncio HTTP+JSON service exposing the repo's
schedule/verify/simulate pipeline as request/response endpoints, with
the mechanics a long-lived process needs: single-flight coalescing of
identical in-flight builds, bounded admission (in-flight cap, wait
queue, per-client token buckets), request deadlines, and graceful
drain on SIGTERM.

Layering (see ``docs/SERVICE.md``)::

    http.py       transport: HTTP/1.1 parsing, keep-alive, drain
    app.py        routing, deadlines, usage accounting, lifecycle
    admission.py  the front door: caps, queue, rate limits
    planner.py    single-flight builds over the schedule cache
    protocol.py   request validation and canonical JSON encoding

The repository benchmark measures the service from outside, over
loopback: perfbench's ``serve-cold`` and ``serve-warm`` workloads
(see perfbench/README.md).
"""

from repro.service.admission import AdmissionConfig, AdmissionController, Rejected
from repro.service.app import ServiceApp, ServiceConfig, ServiceThread, serve_async
from repro.service.planner import PlannerService, PlanResult
from repro.service.protocol import PlanRequest, ProtocolError, encode_json, parse_plan_request

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "PlanRequest",
    "PlanResult",
    "PlannerService",
    "ProtocolError",
    "Rejected",
    "ServiceApp",
    "ServiceConfig",
    "ServiceThread",
    "encode_json",
    "parse_plan_request",
    "serve_async",
]
