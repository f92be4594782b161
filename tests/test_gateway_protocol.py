"""Wire-protocol tests: bid parsing, structured errors, response shapes."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ProtocolError
from repro.gateway.protocol import (
    DECISIONS,
    PROTOCOL_VERSION,
    bid_to_line,
    bye_message,
    decision_message,
    decode_message,
    encode_message,
    error_message,
    hello_message,
    parse_bid_line,
)
from repro.workload.request import Request


def _bid(**overrides) -> dict:
    record = {
        "request_id": 7,
        "source": "A",
        "dest": "B",
        "start": 1,
        "end": 4,
        "rate": 2.5,
        "value": 12.0,
    }
    record.update(overrides)
    return record


class TestBidLines:
    def test_roundtrip_through_wire_schema(self):
        request = Request(
            request_id=3, source="A", dest="B", start=0, end=5, rate=1.5, value=9.0
        )
        line = bid_to_line(request)
        assert line.endswith(b"\n")
        parsed = parse_bid_line(line, 1)
        assert parsed == request

    def test_accepts_str_and_bytes(self):
        line = json.dumps(_bid())
        assert parse_bid_line(line, 1) == parse_bid_line(line.encode(), 1)

    def test_malformed_json_carries_lineno(self):
        with pytest.raises(ProtocolError, match="line 42") as excinfo:
            parse_bid_line(b"{nope", 42)
        assert excinfo.value.lineno == 42

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_bid_line(b"[1, 2, 3]", 1)

    def test_missing_fields_are_named(self):
        record = _bid()
        del record["rate"], record["value"]
        with pytest.raises(ProtocolError, match="rate"):
            parse_bid_line(json.dumps(record), 5)

    def test_workload_validation_becomes_protocol_error(self):
        # end < start violates the Request invariant, not JSON syntax.
        with pytest.raises(ProtocolError, match="line 9") as excinfo:
            parse_bid_line(json.dumps(_bid(start=5, end=2)), 9)
        assert excinfo.value.lineno == 9

    def test_wrong_types_rejected(self):
        with pytest.raises(ProtocolError, match="invalid bid record"):
            parse_bid_line(json.dumps(_bid(rate="fast")), 1)

    def test_window_checked_against_cycle_length(self):
        parse_bid_line(json.dumps(_bid(end=11)), 1, num_slots=12)
        with pytest.raises(ProtocolError, match="outside the billing cycle"):
            parse_bid_line(json.dumps(_bid(end=12)), 1, num_slots=12)

    def test_unknown_node_rejected_when_nodes_given(self):
        line = json.dumps(_bid(source="Z"))
        parse_bid_line(line, 1)  # no node check without the set
        with pytest.raises(ProtocolError, match="unknown node 'Z'"):
            parse_bid_line(line, 1, nodes={"A", "B"})


#: Arbitrary JSON: scalars of every kind, NaN and the infinities, huge
#: ints, long strings, and nesting.
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=300)
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


class TestHostileFields:
    """Every bid line yields a ``Request`` or a ``ProtocolError``."""

    @given(
        st.fixed_dictionaries(
            {},
            optional={
                field: _JSON
                for field in (
                    "request_id", "source", "dest", "start", "end", "rate", "value"
                )
            },
        ),
        st.sampled_from([None, 12]),
        st.booleans(),
    )
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_request_or_protocol_error(self, record, num_slots, node_check):
        # Bid-shaped records most of the time, so deep fields are reached.
        line = json.dumps({**_bid(), **record}, allow_nan=True)
        nodes = {"A", "B", 3} if node_check else None
        try:
            request = parse_bid_line(line, 4, num_slots=num_slots, nodes=nodes)
        except ProtocolError as exc:
            assert exc.lineno == 4
            return
        assert isinstance(request, Request)
        for field in ("request_id", "start", "end"):
            assert type(getattr(request, field)) is int
        assert type(request.source) in (str, int)
        assert math.isfinite(request.rate) and request.rate > 0
        assert math.isfinite(request.value) and request.value >= 0

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"request_id": float("inf")}, "request_id must be an integer"),
            ({"request_id": 1e308}, "request_id must be an integer"),
            ({"request_id": 10**309}, "request_id must be an integer"),
            ({"request_id": True}, "request_id must be an integer"),
            ({"start": 0.7}, "start must be an integer"),
            ({"end": 4.0}, "end must be an integer"),
            ({"source": ["A"]}, "source must be a node id"),
            ({"dest": {"id": "B"}}, "dest must be a node id"),
            ({"source": False}, "source must be a node id"),
            ({"value": float("inf")}, "value must be finite"),
            ({"rate": float("inf")}, "rate must be finite"),
            ({"rate": float("nan")}, "rate must be finite"),
            ({"value": 10**400}, "invalid bid record"),
            ({"rate": "2.5"}, "rate must be a number"),
            ({"value": None}, "value must be a number"),
        ],
    )
    def test_each_hostile_field_is_a_protocol_error(self, overrides, message):
        line = json.dumps(_bid(**overrides), allow_nan=True)
        with pytest.raises(ProtocolError, match=message) as excinfo:
            parse_bid_line(line, 6, num_slots=12, nodes={"A", "B"})
        assert excinfo.value.lineno == 6

    def test_nesting_too_deep_to_decode_is_a_protocol_error(self):
        line = b"[" * 200_000 + b"]" * 200_000
        with pytest.raises(ProtocolError, match="malformed bid line"):
            parse_bid_line(line, 3)

    def test_int_node_ids_are_accepted(self):
        request = parse_bid_line(json.dumps(_bid(source=1, dest=2)), 1, nodes={1, 2})
        assert (request.source, request.dest) == (1, 2)


class TestResponses:
    def test_encode_decode_roundtrip(self):
        message = hello_message(
            topology="B4", slots_per_cycle=12, window=2,
            slot_seconds=0.5, num_cycles=None,
        )
        line = encode_message(message)
        assert line.endswith(b"\n") and b" " not in line.split(b'"hello"')[0]
        assert decode_message(line) == message
        assert message["protocol"] == PROTOCOL_VERSION

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_message(b"not json\n")
        with pytest.raises(ProtocolError, match="'type'"):
            decode_message(b'{"no_type": 1}\n')

    def test_decision_message_validates_verdict(self):
        for verdict in DECISIONS:
            message = decision_message(
                request_id=1, decision=verdict, path=0, cycle=0,
                window_start=0, latency_ms=1.0,
            )
            assert message["decision"] == verdict
        with pytest.raises(ValueError):
            decision_message(
                request_id=1, decision="maybe", path=None, cycle=0,
                window_start=0, latency_ms=0.0,
            )

    def test_error_and_bye_shapes(self):
        err = error_message(3, "line 3: bad")
        assert err == {"type": "error", "line": 3, "error": "line 3: bad"}
        bye = bye_message(submitted=10, responded=10)
        assert bye["type"] == "bye" and bye["reason"] == "eof"
