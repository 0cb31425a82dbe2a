"""Tests for the service wire protocol (request validation, encoding)."""

from __future__ import annotations

import json

import pytest

from repro.core.paths import ResolutionOrder
from repro.parallel.cache import canonical_json
from repro.service.protocol import (
    MAX_DESTINATIONS,
    MAX_N,
    ProtocolError,
    encode_json,
    encode_plan_response,
    parse_plan_request,
)


def _doc(**over):
    doc = {"algorithm": "wsort", "n": 4, "source": 0, "destinations": [3, 1, 5]}
    doc.update(over)
    return doc


class TestParse:
    def test_valid_request(self):
        req = parse_plan_request(_doc(), "schedule")
        assert req.kind == "schedule"
        assert req.algorithm == "wsort"
        assert req.n == 4
        assert req.destinations == (1, 3, 5)  # sorted
        assert req.ports.name == "all-port"
        assert req.order is ResolutionOrder.DESCENDING
        assert req.m == 3

    def test_destinations_deduplicated_and_sorted(self):
        a = parse_plan_request(_doc(destinations=[5, 1, 3, 1, 5]), "schedule")
        b = parse_plan_request(_doc(destinations=[1, 3, 5]), "schedule")
        assert a.destinations == b.destinations == (1, 3, 5)

    def test_defaults(self):
        req = parse_plan_request({"n": 3, "destinations": [1]}, "simulate")
        assert req.algorithm == "wsort"
        assert req.source == 0
        assert req.size == 4096

    def test_port_spellings(self):
        assert parse_plan_request(_doc(ports="all"), "schedule").ports.name == "all-port"
        assert parse_plan_request(_doc(ports="one"), "schedule").ports.name == "one-port"
        assert parse_plan_request(_doc(ports=1), "schedule").ports.name == "one-port"
        assert parse_plan_request(_doc(ports=2), "schedule").ports.ports == 2

    def test_order_spellings(self):
        req = parse_plan_request(_doc(order="ascending"), "schedule")
        assert req.order is ResolutionOrder.ASCENDING

    @pytest.mark.parametrize(
        "mutation",
        [
            {"n": None},
            {"n": "4"},
            {"n": True},
            {"n": 0},
            {"n": MAX_N + 1},
            {"algorithm": "nope"},
            {"destinations": []},
            {"destinations": None},
            {"destinations": "1,2"},
            {"destinations": [99]},  # out of range for n=4
            {"destinations": [0]},  # equals the source
            {"destinations": [1.5]},
            {"destinations": [True]},
            {"source": 16},
            {"ports": "two"},
            {"ports": 9},  # > n
            {"ports": True},
            {"order": "sideways"},
            {"size": 0},
            {"size": 1 << 21},
        ],
    )
    def test_rejects_bad_fields(self, mutation):
        with pytest.raises(ProtocolError):
            parse_plan_request(_doc(**mutation), "schedule")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_plan_request([1, 2], "schedule")

    def test_rejects_too_many_destinations(self):
        doc = {"n": MAX_N, "destinations": list(range(1, MAX_DESTINATIONS + 2))}
        with pytest.raises(ProtocolError, match="too many destinations"):
            parse_plan_request(doc, "schedule")

    def test_describe_is_json_safe(self):
        req = parse_plan_request(_doc(), "simulate")
        doc = json.loads(json.dumps(req.describe()))
        assert doc["kind"] == "simulate"
        assert doc["size"] == 4096
        assert doc["m"] == 3

    def test_protocol_error_is_value_error(self):
        assert issubclass(ProtocolError, ValueError)


class TestEncodeJson:
    def test_canonical_and_newline_terminated(self):
        body = encode_json({"b": 1, "a": [2, 3]})
        assert body == b'{"a":[2,3],"b":1}\n'

    def test_key_order_independent(self):
        assert encode_json({"x": 1, "y": 2}) == encode_json({"y": 2, "x": 1})


class TestEncodePlanResponse:
    """Splicing the stored bytes gives the body ``encode_json`` gives."""

    @pytest.mark.parametrize(
        "kind, value",
        [
            ("schedule", {"max_step": 3, "dest_steps": {"1": 1, "10": 3, "3": 2}}),
            ("verify", {"ok": True, "errors": [], "max_step": 2}),
            ("verify", {"ok": False, "errors": ['arc "0-1"', "\u00e9"], "max_step": None}),
            (
                "simulate",
                {"avg_delay_us": 8030.400000000001, "max_delay_us": 1e-7, "total_blocked_us": 0.0},
            ),
        ],
    )
    @pytest.mark.parametrize("source", ["build", "cache"])
    def test_equals_encode_json(self, kind, value, source):
        req = parse_plan_request(_doc(size=512), kind)
        key = "ab" * 32
        payload = {"request": req.describe(), "key": key, "source": source, "result": value}
        body = encode_plan_response(req, key, source, canonical_json(value))
        assert body == encode_json(payload)
        assert json.loads(body) == payload
