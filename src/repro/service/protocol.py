"""Wire protocol of the schedule-planning service: requests and errors.

Every ``/v1/*`` endpoint consumes one JSON object and produces one
JSON object.  This module is the single place where untrusted request
bodies become validated, *bounded* :class:`PlanRequest` values: the
planner behind the service executes pure-Python schedule builds, so the
protocol layer enforces the limits (cube dimension, destination count,
message size) that keep one request from monopolizing a worker.

Canonical encoding: responses are serialized with sorted keys and
compact separators (:func:`encode_json`), so two requests resolving to
the same planner value receive byte-identical bodies -- the property
the single-flight coalescing tests pin down.  A planning response
splices the planner's stored bytes into that encoding
(:func:`encode_plan_response`) rather than encoding its value again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.addressing import MAX_N
from repro.core.paths import ResolutionOrder
from repro.multicast.ports import ALL_PORT, ONE_PORT, PortModel, k_port
from repro.parallel.cache import canonical_json
from repro.simulator.params import NCUBE2, Timings

__all__ = [
    "MAX_DESTINATIONS",
    "MAX_MESSAGE_BYTES",
    "MAX_N",
    "PlanRequest",
    "ProtocolError",
    "encode_json",
    "encode_plan_response",
    "parse_plan_request",
]

#: Cap on destinations per request (also bounded by ``2^n - 1``).
MAX_DESTINATIONS = 4096

#: Cap on the simulated message size for ``/v1/simulate``.
MAX_MESSAGE_BYTES = 1 << 20


class ProtocolError(ValueError):
    """A malformed or out-of-bounds request body (HTTP 400)."""


def encode_json(payload: Any) -> bytes:
    """The canonical response encoding: sorted keys, compact, one LF."""
    return canonical_json(payload) + b"\n"


@dataclass(frozen=True, slots=True)
class PlanRequest:
    """One validated planning request (schedule, verify, or simulate).

    ``destinations`` is normalized to a sorted, de-duplicated tuple so
    equal requests -- however the client ordered them -- share one
    cache key and coalesce onto one in-flight build.
    """

    kind: str
    algorithm: str
    n: int
    source: int
    destinations: tuple[int, ...]
    ports: PortModel
    order: ResolutionOrder
    size: int = 4096
    timings: Timings = NCUBE2

    @property
    def m(self) -> int:
        return len(self.destinations)

    def describe(self) -> dict[str, Any]:
        """The request echo included in responses (JSON-safe)."""
        doc: dict[str, Any] = {
            "kind": self.kind,
            "algorithm": self.algorithm,
            "n": self.n,
            "source": self.source,
            "m": self.m,
            "ports": self.ports.name,
            "order": self.order.name.lower(),
        }
        if self.kind == "simulate":
            doc["size"] = self.size
        return doc


def encode_plan_response(req: PlanRequest, key: str, source: str, raw: bytes) -> bytes:
    """The :func:`encode_json` body of a planning response whose result
    ``value`` is stored as ``raw == canonical_json(value)``, built without
    decoding ``raw``: its four keys are written in sorted order."""
    return b'{"key":%s,"request":%s,"result":%s,"source":%s}\n' % (
        canonical_json(key), canonical_json(req.describe()), raw, canonical_json(source)
    )


def _require_int(doc: Mapping[str, Any], field: str, lo: int, hi: int, default=None) -> int:
    value = doc.get(field, default)
    if value is None:
        raise ProtocolError(f"missing required field {field!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"field {field!r} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ProtocolError(f"field {field!r} must be in [{lo}, {hi}], got {value}")
    return value


def _parse_ports(spec: Any, n: int) -> PortModel:
    if isinstance(spec, bool):  # bool is an int; reject before == 1 matches
        raise ProtocolError(f"field 'ports' must be 'all', 'one', or an integer, got {spec!r}")
    if spec is None or spec == "all":
        return ALL_PORT
    if spec == "one" or spec == 1:
        return ONE_PORT
    if not isinstance(spec, int):
        raise ProtocolError(f"field 'ports' must be 'all', 'one', or an integer, got {spec!r}")
    if not 1 <= spec <= n:
        raise ProtocolError(f"field 'ports' must be in [1, {n}] for an {n}-cube, got {spec}")
    return k_port(spec)


def _parse_order(spec: Any) -> ResolutionOrder:
    if spec is None or spec == "descending":
        return ResolutionOrder.DESCENDING
    if spec == "ascending":
        return ResolutionOrder.ASCENDING
    raise ProtocolError(
        f"field 'order' must be 'descending' or 'ascending', got {spec!r}"
    )


def parse_plan_request(doc: Any, kind: str) -> PlanRequest:
    """Validate one request body into a :class:`PlanRequest`.

    Raises:
        ProtocolError: on any structural, type, or bounds violation;
            the message is safe to return verbatim in a 400 body.
    """
    if not isinstance(doc, Mapping):
        raise ProtocolError("request body must be a JSON object")
    from repro.multicast.registry import ALGORITHMS

    algorithm = doc.get("algorithm", "wsort")
    if algorithm not in ALGORITHMS:
        raise ProtocolError(
            f"unknown algorithm {algorithm!r}; known: {', '.join(sorted(ALGORITHMS))}"
        )
    n = _require_int(doc, "n", 1, MAX_N)
    size = 1 << n
    source = _require_int(doc, "source", 0, size - 1, default=0)
    raw_dests = doc.get("destinations")
    if not isinstance(raw_dests, (list, tuple)) or not raw_dests:
        raise ProtocolError("field 'destinations' must be a non-empty array of node ids")
    if len(raw_dests) > MAX_DESTINATIONS:
        raise ProtocolError(
            f"too many destinations ({len(raw_dests)} > {MAX_DESTINATIONS})"
        )
    dests: set[int] = set()
    for d in raw_dests:
        if isinstance(d, bool) or not isinstance(d, int):
            raise ProtocolError(f"destination {d!r} is not an integer node id")
        if not 0 <= d < size:
            raise ProtocolError(f"destination {d} out of range for an {n}-cube")
        if d == source:
            raise ProtocolError(f"destination {d} equals the source")
        dests.add(d)
    msg_size = _require_int(doc, "size", 1, MAX_MESSAGE_BYTES, default=4096)
    return PlanRequest(
        kind=kind,
        algorithm=algorithm,
        n=n,
        source=source,
        destinations=tuple(sorted(dests)),
        ports=_parse_ports(doc.get("ports"), n),
        order=_parse_order(doc.get("order")),
        size=msg_size,
    )
