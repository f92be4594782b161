"""The gateway wire protocol: newline-delimited JSON, trace-schema bids.

One connection carries two independent streams over a single socket:

* **client → gateway**: one bid per line, using exactly the per-request
  JSONL *trace* schema of :mod:`repro.workload.traces`
  (``request_id``/``source``/``dest``/``start``/``end``/``rate``/
  ``value``) — a recorded trace replays over the wire byte-for-byte,
  minus its header line;
* **gateway → client**: one JSON object per line, each tagged with a
  ``type``: a ``hello`` banner on connect (the serving configuration a
  client needs to build valid bids), a ``decision`` per submitted bid
  (``accept``/``reject``/``shed`` plus the chosen path and the measured
  admission latency), a structured per-line ``error`` for malformed
  input (mirroring :class:`~repro.exceptions.WorkloadError`'s line
  numbers for traces — the connection survives), and a ``bye`` with the
  connection's final accounting when the client half-closes.

Parsing never trusts the peer: every failure mode of a bid line maps to
:class:`~repro.exceptions.ProtocolError` carrying the 1-based line
number, so the server can answer with an ``error`` response instead of
dropping the connection.
"""

from __future__ import annotations

import json
from typing import Any

from repro.exceptions import ProtocolError, WorkloadError
from repro.workload.request import Request

__all__ = [
    "PROTOCOL_VERSION",
    "DECISIONS",
    "encode_message",
    "decode_message",
    "bid_to_line",
    "parse_bid_line",
    "hello_message",
    "decision_message",
    "error_message",
    "bye_message",
]

#: Wire schema version, stamped into the hello banner.
PROTOCOL_VERSION = 1

#: The admission verdicts a decision response may carry.
DECISIONS = ("accept", "reject", "shed")

#: The trace-schema fields of one bid line (all required).
_BID_FIELDS = ("request_id", "source", "dest", "start", "end", "rate", "value")

#: Integer fields must fit a signed 64-bit integer.
_INT_LIMIT = 2**63


def encode_message(message: dict[str, Any]) -> bytes:
    """One response as a compact, newline-terminated JSON line."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes | str) -> dict[str, Any]:
    """Parse one gateway response line (the client side of the protocol)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed response line ({exc})") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("response line must be a JSON object with a 'type'")
    return message


def bid_to_line(request: Request) -> bytes:
    """Serialize one bid in the wire (= trace) schema, newline-terminated."""
    return encode_message(
        {
            "request_id": request.request_id,
            "source": str(request.source),
            "dest": str(request.dest),
            "start": request.start,
            "end": request.end,
            "rate": request.rate,
            "value": request.value,
        }
    )


def parse_bid_line(
    line: bytes | str,
    lineno: int,
    *,
    num_slots: int | None = None,
    nodes: Any = None,
) -> Request:
    """Parse one submitted bid line into a :class:`Request`.

    ``lineno`` is the 1-based line number within the connection; every
    failure raises :class:`ProtocolError` carrying it, so the caller can
    produce the structured per-line error response.  With ``num_slots``
    the bid's slot window is additionally checked against the gateway's
    billing-cycle length (the same bound :class:`RequestSet` enforces);
    with ``nodes`` (a container of valid node ids) the endpoints are
    checked against the served topology.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    try:
        data = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError; nesting too deep to decode
        # raises RecursionError.
        raise ProtocolError(
            f"line {lineno}: malformed bid line ({exc})", lineno=lineno
        ) from None
    if not isinstance(data, dict):
        raise ProtocolError(
            f"line {lineno}: bid line must be a JSON object, "
            f"got {type(data).__name__}",
            lineno=lineno,
        )
    missing = [field for field in _BID_FIELDS if field not in data]
    if missing:
        raise ProtocolError(
            f"line {lineno}: bid missing fields {missing}", lineno=lineno
        )
    try:
        request = Request(
            request_id=_integer(data, "request_id"),
            source=_endpoint(data, "source"),
            dest=_endpoint(data, "dest"),
            start=_integer(data, "start"),
            end=_integer(data, "end"),
            rate=_number(data, "rate"),
            value=_number(data, "value"),
        )
    except WorkloadError as exc:
        raise ProtocolError(f"line {lineno}: {exc}", lineno=lineno) from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(
            f"line {lineno}: invalid bid record ({exc})", lineno=lineno
        ) from None
    if num_slots is not None and request.end >= num_slots:
        raise ProtocolError(
            f"line {lineno}: bid window ends at slot {request.end}, outside "
            f"the billing cycle of {num_slots} slots",
            lineno=lineno,
        )
    if nodes is not None:
        for endpoint in (request.source, request.dest):
            if endpoint not in nodes:
                raise ProtocolError(
                    f"line {lineno}: unknown node {endpoint!r}", lineno=lineno
                )
    return request


def _integer(data: dict[str, Any], field: str) -> int:
    """A JSON integer field: an int (not a bool, not a float) in int64."""
    value = data[field]
    if type(value) is not int or not -_INT_LIMIT <= value < _INT_LIMIT:
        raise ValueError(f"{field} must be an integer, got {_clip(value)}")
    return value


def _number(data: dict[str, Any], field: str) -> float:
    """A JSON number field (not a bool) as a float; finiteness is the
    :class:`Request`'s check."""
    value = data[field]
    if type(value) is not float and type(value) is not int:
        raise ValueError(f"{field} must be a number, got {_clip(value)}")
    return float(value)


def _endpoint(data: dict[str, Any], field: str):
    """A node id field: a string or an int (not a bool)."""
    value = data[field]
    if type(value) is not str and type(value) is not int:
        raise ValueError(f"{field} must be a node id, got {_clip(value)}")
    return value


def _clip(value: Any) -> str:
    """A peer value for an error message, cut to a readable length."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


# ----------------------------------------------------------------- responses


def hello_message(
    *,
    topology: str,
    slots_per_cycle: int,
    window: int,
    slot_seconds: float,
    num_cycles: int | None,
) -> dict[str, Any]:
    """The banner sent on connect: everything a client needs to bid."""
    return {
        "type": "hello",
        "protocol": PROTOCOL_VERSION,
        "topology": topology,
        "slots_per_cycle": slots_per_cycle,
        "window": window,
        "slot_seconds": slot_seconds,
        "num_cycles": num_cycles,
    }


def decision_message(
    *,
    request_id: int,
    decision: str,
    path: int | None,
    cycle: int,
    window_start: int,
    latency_ms: float,
) -> dict[str, Any]:
    """One bid's verdict. ``latency_ms`` is submit-to-decision, gateway-side."""
    if decision not in DECISIONS:
        raise ValueError(f"decision must be one of {DECISIONS}, got {decision!r}")
    return {
        "type": "decision",
        "request_id": request_id,
        "decision": decision,
        "path": path,
        "cycle": cycle,
        "window_start": window_start,
        "latency_ms": latency_ms,
    }


def error_message(lineno: int | None, error: str) -> dict[str, Any]:
    """A structured per-line error; the connection stays usable."""
    return {"type": "error", "line": lineno, "error": error}


def bye_message(
    *, submitted: int, responded: int, reason: str = "eof"
) -> dict[str, Any]:
    """The connection's closing accounting line."""
    return {
        "type": "bye",
        "submitted": submitted,
        "responded": responded,
        "reason": reason,
    }
