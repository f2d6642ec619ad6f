"""One codec for each thing that crosses a service node's HTTP boundary.

:func:`parse_address` reads every ``HOST:PORT``; :func:`request` is the
one outbound request (one connection per call, a JSON object back).
:data:`REJECTIONS` maps each typed error to the status, ``error_kind``,
fields and ``Retry-After`` it travels as: the server answers with
:func:`rejection_answer`, and replication links, clients and ``failover
status`` rebuild the error with :func:`rejection_error`.  A replication
shipment carries the WAL frame bytes as its body, exactly as appended,
and its fencing epoch and WAL sequence in two headers.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..errors import (
    FencedEpochError,
    InjectedFaultError,
    NotPrimaryError,
    ParameterError,
    ProtocolError,
    ReplicaDivergenceError,
    ReplicaGapError,
    ReplicationQuorumError,
    RetryExhaustedError,
)

__all__ = [
    "BadFrameError", "NotReplicatedError", "REJECTIONS", "parse_address", "request",
    "rejection_answer", "rejection_error", "shipment_headers", "read_shipment",
]


class BadFrameError(ParameterError):
    """A standby refused a shipment before changing anything."""


class NotReplicatedError(ProtocolError):
    """A replication call reached a node that does not replicate."""


#: Typed error -> (status, ``error_kind``, body fields, ``Retry-After``),
#: most specific first.  Fielded errors are rebuilt from their fields in
#: constructor order; the others carry the server's message.
REJECTIONS = (
    (FencedEpochError, 409, "fenced", ("observed", "required"), None),
    (ReplicaGapError, 409, "gap", ("expected", "got"), None),
    (ReplicaDivergenceError, 409, "diverged", ("sequence", "reason"), None),
    (NotPrimaryError, 409, "not_primary", ("role", "reason"), None),
    # Durable locally, under-replicated: a retry (same idempotency key)
    # re-drives shipping without re-folding.
    (ReplicationQuorumError, 503, "quorum", ("acked", "needed", "total"), "1"),
    (BadFrameError, 400, "bad_frame", (), None),
    (NotReplicatedError, 409, "not_replicated", (), None),
    (ParameterError, 400, None, (), None),
    (ProtocolError, 409, None, (), None),
    (RetryExhaustedError, 503, None, (), None),
    # An unabsorbed injected fault outside a retry wrapper: surfaced to
    # the chaos suite, not masked as a 500.
    (InjectedFaultError, 503, None, (), None),
)
_BY_KIND = {entry[2]: entry for entry in REJECTIONS if entry[2] is not None}

#: A shipment's request headers: payload key -> header name.
_SHIPMENT_HEADERS = (("epoch", "Repro-Epoch"), ("sequence", "Repro-Sequence"))


def parse_address(value: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """``(host, port)`` of a ``HOST:PORT`` string or a ``(host, port)`` pair."""
    if isinstance(value, str):
        host, sep, port = value.rpartition(":")
    else:
        host, sep, port = value[0], ":", value[1]
    try:
        number = int(port)
    except (TypeError, ValueError):
        number = 0
    if not sep or not host or not 0 < number < 65536:
        raise ParameterError(f"address must be HOST:PORT, got {value!r}")
    return str(host), number


def request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Union[None, bytes, Mapping[str, Any]] = None,
    *,
    headers: Optional[Mapping[str, str]] = None,
    timeout: float,
) -> Tuple[int, dict]:
    """One request over a fresh connection; ``(status, JSON object)``.

    A mapping ``body`` is sent as JSON, bytes as they are.  Raises
    ``ConnectionError`` if the peer cannot be reached and
    :class:`~repro.errors.ProtocolError` if its answer is not JSON.
    """
    import http.client  # slow to import; a node that never calls out never needs it

    sent = dict(headers or {})
    if body is not None and not isinstance(body, bytes):
        body = json.dumps(dict(body)).encode("utf-8")
        sent["Content-Type"] = "application/json"
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(method, path, body=body, headers=sent)
        response = connection.getresponse()
        raw = response.read()
    except (OSError, http.client.HTTPException) as error:
        raise ConnectionError(f"{host}:{port} unreachable: {error}") from error
    finally:
        connection.close()
    try:
        parsed = json.loads(raw.decode("utf-8")) if raw else {}
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as error:
        raise ProtocolError(f"{host}:{port} returned undecodable body: {error}") from error
    return response.status, parsed if isinstance(parsed, dict) else {"body": parsed}


def rejection_answer(error: BaseException) -> Tuple[int, dict, Optional[Dict[str, str]]]:
    """``(status, body, headers)`` the server answers ``error`` with.

    An error outside the table — an unmapped ReproError, or a bug such as
    the one that killed the ingest worker — is a 500 naming it.
    """
    for cls, status, kind, fields, retry_after in REJECTIONS:
        if isinstance(error, cls):
            body: Dict[str, Any] = {"error": str(error)}
            if kind is not None:
                body["error_kind"] = kind
            body.update((field, getattr(error, field)) for field in fields)
            return status, body, None if retry_after is None else {"Retry-After": retry_after}
    return 500, {"error": f"{type(error).__name__}: {error}"}, None


def rejection_error(status: int, body: Mapping[str, Any], name: str) -> Exception:
    """The typed error of a non-2xx answer from ``name``.

    A known ``error_kind`` rebuilds its table entry; otherwise a 429 or
    503 is a ``ConnectionError`` (transient), a 400 a ParameterError and
    anything else a ProtocolError.
    """
    kind, message = body.get("error_kind"), body.get("error", "")
    if isinstance(kind, str) and kind in _BY_KIND:
        cls, _, _, fields, _ = _BY_KIND[kind]
        if not fields:
            return cls(f"{name}: {message}")
        try:
            return cls(*(body[field] for field in fields))
        except (KeyError, TypeError, ValueError):
            return ProtocolError(f"{name} answered a malformed {kind!r} rejection: {dict(body)}")
    if status in (429, 503):
        return ConnectionError(f"{name} unavailable (HTTP {status}): {message}")
    if status == 400:
        return ParameterError(f"{name}: {message}")
    return ProtocolError(f"{name} answered HTTP {status}: {message}")


def shipment_headers(shipment: Mapping[str, Any]) -> Dict[str, str]:
    """The request headers carrying a shipment's epoch and sequence."""
    return {header: str(int(shipment[key])) for key, header in _SHIPMENT_HEADERS}


def read_shipment(headers: Mapping[str, str], body: bytes) -> dict:
    """The ``apply_replication`` payload of a ``POST /v1/replicate``.

    ``headers`` are the request's, names lower-cased; a missing or
    non-integer epoch or sequence raises :class:`BadFrameError`.
    """
    shipment: Dict[str, Any] = {"frame": body}
    for key, header in _SHIPMENT_HEADERS:
        text = headers.get(header.lower(), "")
        if not (text.isascii() and text.isdigit()):
            raise BadFrameError(f"header {header} must be a non-negative integer, got {text!r}")
        shipment[key] = int(text)
    return shipment
