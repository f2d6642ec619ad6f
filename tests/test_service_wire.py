"""The codecs at a service node's HTTP boundary.

One frame parser serves ``decode_frame`` and WAL recovery, so each kind
of frame damage gets one reason from both.  ``POST /v1/replicate``
carries the WAL frame bytes as its body, with the fencing epoch and the
WAL sequence in two headers.  One table (:data:`repro.service.wire.REJECTIONS`)
gives every typed rejection its status, ``error_kind``, fields and
``Retry-After``; the server answers with it, and the one decoder rebuilds
the same error.  Live servers run in process; the synchronous client
calls run on a worker thread beside the event loop.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    FencedEpochError,
    NotPrimaryError,
    ParameterError,
    ProtocolError,
    ReplicaDivergenceError,
    ReplicaGapError,
    ReplicationQuorumError,
)
from repro.service import (
    AggregationService,
    HttpReplica,
    ReplicatedService,
    ResilientClient,
    ServerConfig,
    ServiceServer,
)
from repro.service.wal import damage_frame, decode_frame, encode_frame
from repro.service.wire import (
    BadFrameError,
    NotReplicatedError,
    parse_address,
    rejection_answer,
    rejection_error,
    shipment_headers,
)

from .test_service import TENANT, make_config

RECORD = {"tenant": TENANT, "stream": "A", "attribute": 0, "values": [1, 2, 3]}
GOOD = encode_frame(RECORD)


def _framed(payload: bytes) -> bytes:
    """A frame with a valid crc around any payload bytes."""
    return b"RW" + struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


#: One frame per damage class.  The non-object payload passes the crc
#: and parses as JSON, which is why recovery used to keep it; the nested
#: one exhausted the JSON parser's recursion limit, an untyped error.
DAMAGED_FRAMES = {
    "short header": GOOD[:7],
    "bad magic": b"XX" + GOOD[2:],
    "implausible length": b"RW" + struct.pack("<II", 0xFFFFFFF0, 0) + GOOD[10:],
    "short payload": GOOD[:-3],
    "crc mismatch": damage_frame(GOOD, "corrupt"),
    "invalid JSON": _framed(b"{not json"),
    "JSON nested too deep": _framed(b"[" * 100_000),
    "non-object payload": _framed(b"[1, 2, 3]"),
}


def _serve(*servers_and_steps):
    """Start ``servers``, run ``steps(addresses)`` on a thread, shut down."""
    *services, steps = servers_and_steps

    async def scenario():
        servers = []
        try:
            for service in services:
                server = ServiceServer(service, ServerConfig(port=0, watchdog_interval=0.05))
                servers.append(server)
                await server.start()
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                None, steps, [f"{h}:{p}" for h, p in (s.address for s in servers)]
            )
        finally:
            for server in reversed(servers):
                await server.shutdown()

    return asyncio.run(scenario())


def _dead_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ---------------------------------------------------------------------------
# One frame parser
# ---------------------------------------------------------------------------
class TestFrameParser:
    @pytest.mark.parametrize("name", sorted(DAMAGED_FRAMES))
    def test_decode_and_recovery_give_one_reason(self, tmp_path, name):
        with pytest.raises(ParameterError) as excinfo:
            decode_frame(DAMAGED_FRAMES[name])
        reason = str(excinfo.value)
        service = AggregationService(make_config(tmp_path))
        service.start()
        service.ingest(TENANT, "A", [1, 2, 3])
        service.close()
        with open(tmp_path / "wal.log", "ab") as fh:
            fh.write(DAMAGED_FRAMES[name])
        reborn = AggregationService(make_config(tmp_path))
        recovery = reborn.start()
        assert recovery["wal_records"] == 1
        assert recovery["torn_tail"]["reason"] == reason
        assert recovery["torn_tail"]["dropped_bytes"] == len(DAMAGED_FRAMES[name])
        reborn.close()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=48), st.text(max_size=48).map(str.encode)), st.booleans())
    def test_any_bytes_give_a_record_or_a_typed_error(self, data, framed):
        try:
            record = decode_frame(_framed(data) if framed else data)
        except ParameterError:
            return
        assert isinstance(record, dict)

    def test_decode_refuses_trailing_bytes(self):
        assert decode_frame(GOOD) == RECORD
        with pytest.raises(ParameterError, match="2 trailing bytes"):
            decode_frame(GOOD + b"RW")

    @pytest.mark.parametrize("kind", ["torn-write", "corrupt"])
    def test_damage_keeps_the_wal_rule(self, kind):
        damaged = damage_frame(GOOD, kind)
        if kind == "torn-write":
            assert damaged == GOOD[: len(GOOD) // 2]
        else:
            assert len(damaged) == len(GOOD)
            assert [i for i in range(len(GOOD)) if damaged[i] != GOOD[i]] == [10]


# ---------------------------------------------------------------------------
# Typed rejections: one table, one decoder
# ---------------------------------------------------------------------------
#: The status, body keys (in order) and extra headers each typed rejection
#: was answered with before the table existed.
PINNED = {
    "fenced": (FencedEpochError(0, 2), 409, ("observed", "required"), None),
    "gap": (ReplicaGapError(3, 7), 409, ("expected", "got"), None),
    "diverged": (ReplicaDivergenceError(5, "forked suffix"), 409, ("sequence", "reason"), None),
    "not_primary": (NotPrimaryError("standby", "writes go to the primary"), 409, ("role", "reason"), None),
    "quorum": (ReplicationQuorumError(0, 1, 1), 503, ("acked", "needed", "total"), {"Retry-After": "1"}),
    "bad_frame": (BadFrameError("payload crc32 mismatch"), 400, (), None),
    "not_replicated": (NotReplicatedError("this node is not replicated; nothing to promote"), 409, (), None),
}


class TestRejections:
    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_answer_is_pinned_and_decodes_to_the_same_error(self, kind):
        error, status, fields, headers = PINNED[kind]
        answered, body, extra = rejection_answer(error)
        assert (answered, list(body), extra) == (
            status,
            ["error", "error_kind", *fields],
            headers,
        )
        assert body["error_kind"] == kind and body["error"] == str(error)
        rebuilt = rejection_error(answered, json.loads(json.dumps(body)), "node")
        assert type(rebuilt) is type(error)
        assert [getattr(rebuilt, f) for f in fields] == [getattr(error, f) for f in fields]
        assert str(rebuilt) == (str(error) if fields else f"node: {error}")

    @pytest.mark.parametrize(
        "error, status",
        [
            (ParameterError("bad batch"), 400),
            (ProtocolError("not started"), 409),
        ],
    )
    def test_untyped_errors_carry_only_the_message(self, error, status):
        assert rejection_answer(error) == (status, {"error": str(error)}, None)
        assert rejection_answer(KeyError("bug")) == (500, {"error": "KeyError: 'bug'"}, None)

    @pytest.mark.parametrize(
        "status, body, expected",
        [
            (429, {"error": "queue full"}, ConnectionError),
            (503, {"error": "draining"}, ConnectionError),
            (400, {"error": "bad batch"}, ParameterError),
            (409, {"error": "not started"}, ProtocolError),
            (500, {"error": "KeyError: 'x'"}, ProtocolError),
            (409, {"error_kind": "fenced", "observed": 0}, ProtocolError),
            (409, {"error_kind": "gap", "expected": "x", "got": 1}, ProtocolError),
            (409, {"error_kind": ["fenced"]}, ProtocolError),
        ],
    )
    def test_untyped_or_malformed_answers_decode_by_status(self, status, body, expected):
        assert type(rejection_error(status, body, "node")) is expected

    def test_live_nodes_answer_the_pinned_rejections(self, tmp_path):
        """Every kind a client request can meet, through real servers."""
        standby = ReplicatedService(make_config(tmp_path / "standby"), role="standby")
        plain = AggregationService(make_config(tmp_path / "plain"))
        primary = ReplicatedService(
            make_config(tmp_path / "primary"), replicas=[HttpReplica("127.0.0.1", _dead_port())]
        )
        shipment = {"epoch": 0, "sequence": 0, "frame": GOOD}

        def post_shipment(port, **changes):
            ship = dict(shipment, **changes)
            return _raw(port, "/v1/replicate", ship["frame"], shipment_headers(ship))

        def steps(addresses):
            standby_port, plain_port, primary_port = (parse_address(a)[1] for a in addresses)
            return {
                "not_primary": _raw(standby_port, "/v1/report", _report_body()),
                "gap": post_shipment(standby_port, sequence=5),
                "bad_frame": _raw(standby_port, "/v1/replicate", GOOD, {"Repro-Epoch": "0"}),
                "promoted": _raw(standby_port, "/v1/promote", b""),
                "fenced": post_shipment(standby_port),
                "not_replicated": _raw(plain_port, "/v1/promote", b""),
                "not_replicated (frames)": post_shipment(plain_port),
                "quorum": _raw(primary_port, "/v1/report", _report_body()),
            }

        answers = _serve(standby, plain, primary, steps)
        assert answers.pop("promoted")[0] == 200
        for name, (status, body, headers) in answers.items():
            kind = name.split()[0]
            _, pinned_status, fields, pinned_headers = PINNED[kind]
            assert (status, list(body)[:2], list(body)[2:]) == (
                pinned_status,
                ["error", "error_kind"],
                list(fields),
            ), name
            assert body["error_kind"] == kind
            assert headers.get("retry-after") == (pinned_headers or {}).get("Retry-After")
        assert answers["gap"][1]["expected"] == 0 and answers["gap"][1]["got"] == 5
        assert (answers["fenced"][1]["observed"], answers["fenced"][1]["required"]) == (0, 1)
        assert len(standby.wal) == 0


def _report_body() -> bytes:
    return json.dumps({"tenant": TENANT, "stream": "A", "values": [1, 2]}).encode()


def _raw(port, path, body, headers=None):
    """POST ``body`` as it is: ``(status, JSON body, lower-cased headers)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("POST", path, body=body, headers=headers or {})
        response = connection.getresponse()
        answer = json.loads(response.read())
        return response.status, answer, {k.lower(): v for k, v in response.getheaders()}
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# Raw frames on the replication wire
# ---------------------------------------------------------------------------
class TestShipments:
    def test_primary_posts_the_appended_frame_bytes(self, tmp_path, monkeypatch):
        posted = []
        original = http.client.HTTPConnection.request

        def recording(self, method, url, body=None, headers=None, **kwargs):
            if url == "/v1/replicate":
                posted.append((body, dict(headers)))
            return original(self, method, url, body=body, headers=headers or {}, **kwargs)

        monkeypatch.setattr(http.client.HTTPConnection, "request", recording)
        standby = ReplicatedService(make_config(tmp_path / "standby"), role="standby")

        def steps(addresses):
            host, port = parse_address(addresses[0])
            primary = ReplicatedService(
                make_config(tmp_path / "primary"), replicas=[HttpReplica(host, port)]
            )
            primary.start()
            try:
                for values in ([1, 2], [3, 4, 5]):
                    primary.ingest(TENANT, "A", values)
                return [primary.wal.frame(i) for i in range(2)]
            finally:
                primary.close()

        frames = _serve(standby, steps)
        assert [body for body, _ in posted] == frames
        assert [headers["Repro-Sequence"] for _, headers in posted] == ["0", "1"]
        assert {headers["Repro-Epoch"] for _, headers in posted} == {"0"}
        assert [standby.wal.frame(i) for i in range(2)] == frames

    @pytest.mark.parametrize(
        "headers",
        [
            {},
            {"Repro-Sequence": "0"},
            {"Repro-Epoch": "0"},
            {"Repro-Epoch": "1.5", "Repro-Sequence": "0"},
            {"Repro-Epoch": "0", "Repro-Sequence": "abc"},
            {"Repro-Epoch": "0", "Repro-Sequence": "-1"},
            {"Repro-Epoch": "0", "Repro-Sequence": ""},
        ],
    )
    def test_missing_or_non_integer_headers_are_bad_frames(self, tmp_path, headers):
        standby = ReplicatedService(make_config(tmp_path), role="standby")
        status, body, _ = _serve(
            standby,
            lambda addresses: _raw(parse_address(addresses[0])[1], "/v1/replicate", GOOD, headers),
        )
        assert (status, body["error_kind"]) == (400, "bad_frame")
        assert "header Repro-" in body["error"]
        assert len(standby.wal) == 0


# ---------------------------------------------------------------------------
# Addresses and the client's queries
# ---------------------------------------------------------------------------
class TestAddresses:
    @pytest.mark.parametrize(
        "value, expected",
        [("node:8080", ("node", 8080)), ("::1:9", ("::1", 9)), (("node", 7), ("node", 7))],
    )
    def test_parses(self, value, expected):
        assert parse_address(value) == expected

    @pytest.mark.parametrize("value", ["node", "node:", ":80", "node:0", "node:65536", "node:x"])
    def test_refuses(self, value):
        with pytest.raises(ParameterError, match="HOST:PORT"):
            parse_address(value)
        with pytest.raises(ParameterError, match="HOST:PORT"):
            ResilientClient([value])


class TestClientQueries:
    def test_tenant_names_reach_the_server_intact(self, tmp_path):
        """``&`` and spaces in a tenant are query text, not structure."""
        tenants = {"a": [1, 1, 2], "a&b": [5, 6, 7, 7], "a b": [3, 9]}
        service = AggregationService(make_config(tmp_path))

        def steps(addresses):
            client = ResilientClient(addresses, failure_threshold=1)
            for tenant, values in tenants.items():
                client.ingest(tenant, "A", values * 10)
                client.ingest(tenant, "B", values[::-1] * 10)
            client.publish()
            return {t: client.estimate(t, "A", "B")["estimate"] for t in tenants}

        answers = _serve(service, steps)
        reborn = AggregationService(make_config(tmp_path))
        reborn.start()
        reborn.publish()
        assert answers == {t: reborn.estimate(t, "A", "B")["estimate"] for t in tenants}
        assert answers["a&b"] != answers["a"]
        reborn.close()

    def test_a_stream_name_with_a_comma_is_refused(self, tmp_path):
        service = AggregationService(make_config(tmp_path))
        service.start()
        with pytest.raises(ParameterError, match="comma-separated"):
            service.ingest(TENANT, "A,B", [1])
        service.close()
