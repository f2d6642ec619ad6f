"""Asyncio HTTP front-end of the online aggregation service.

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server` —
no framework, no threads beyond one dedicated executor — that wraps the
synchronous :class:`~repro.service.core.AggregationService` with the
three properties an online collector owes its operators:

**Bounded everything.**  Ingest requests pass per-tenant admission
control and a bounded :class:`asyncio.Queue`; when either is full the
client gets ``429`` with a ``Retry-After`` derived from the queue depth
instead of an unbounded buffer.  Every request carries a deadline
(``request_timeout``); a fold that cannot complete in time answers
``503`` while the batch — already WAL-durable — survives for the next
snapshot.

**Single-threaded determinism.**  All service work (folds, publishes,
queries) funnels through a one-thread executor, so WAL sequence numbers
have a total order and snapshot bytes never depend on thread
interleaving.  The event loop itself never blocks: every filesystem or
numpy touch crosses ``run_in_executor`` (rule RPR106 enforces this
shape).

**Graceful lifecycle.**  SIGTERM/SIGINT trigger drain → flush →
publish → exit: the listener closes, queued batches fold, checkpoints
flush, and a final snapshot publishes before the process leaves.
``/healthz`` answers liveness (ingest worker alive); ``/readyz`` answers
readiness (snapshot published, freshness and queue headroom within
bounds).  A watchdog task republishes whenever enough new records
accumulate and flips health if the ingest worker ever dies.

Endpoints::

    POST /v1/report    {"tenant", "stream", "values", ["attribute"],
                        ["idempotency_key"]}
    GET  /v1/estimate  ?tenant=&kind=join|chain|frequencies&streams=a,b
                       [&values=1,2,3&method=mean][&window=W]
    POST /v1/publish   force a snapshot publish
    GET  /v1/snapshot  latest snapshot identity (digest, wal_records)
    GET  /v1/status    operational summary (role, fencing_epoch,
                       wal_sequence, last_checkpoint_sequence, ...)
    POST /v1/replicate one shipped WAL frame: the frame bytes as the body,
                       headers Repro-Epoch and Repro-Sequence
    POST /v1/promote   promote this node to primary (bumps the epoch)
    GET  /healthz      liveness     GET /readyz  readiness

Replication rejections are *typed* 409s: the JSON body carries an
``error_kind`` of ``fenced`` / ``gap`` / ``diverged`` / ``not_primary``
plus the fields
the sender needs to react (current epoch, expected sequence, actual
role), so a zombie primary can fence itself and a client can re-target
without string-matching error messages.  A quorum shortfall is 503 —
the batch is durable, only under-replicated — with ``Retry-After``.
The table of every typed rejection is :data:`repro.service.wire.REJECTIONS`.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import math
import signal
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import ParameterError, ProtocolError, ReproError
from .core import AggregationService
from .wire import BadFrameError, NotReplicatedError, read_shipment, rejection_answer

__all__ = ["ServerConfig", "ServiceServer", "run_server"]

#: Reason phrases for the handful of statuses the service answers with.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServerConfig:
    """Front-end knobs: addresses, bounds, deadlines, watchdog cadence."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = let the kernel pick (the bound port is reported)
    queue_limit: int = 128  #: global bound on queued (unfolded) batches
    tenant_queue_limit: int = 32  #: per-tenant bound on queued batches
    request_timeout: float = 30.0  #: per-request deadline, seconds
    publish_threshold: int = 64  #: pending records that trigger the watchdog
    watchdog_interval: float = 0.25  #: seconds between watchdog checks
    max_body_bytes: int = 8 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.queue_limit < 1 or self.tenant_queue_limit < 1:
            raise ParameterError("queue limits must be >= 1")
        if self.request_timeout <= 0:
            raise ParameterError(
                f"request_timeout must be positive, got {self.request_timeout!r}"
            )
        if self.publish_threshold < 1:
            raise ParameterError(
                f"publish_threshold must be >= 1, got {self.publish_threshold}"
            )
        if self.watchdog_interval <= 0:
            raise ParameterError(
                f"watchdog_interval must be positive, got {self.watchdog_interval!r}"
            )


class ServiceServer:
    """One service instance behind one listening socket."""

    def __init__(
        self, service: AggregationService, config: Optional[ServerConfig] = None
    ) -> None:
        self.service = service
        self.config = config or ServerConfig()
        self._queue: Optional[asyncio.Queue] = None
        self._pending_by_tenant: Dict[str, int] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker: Optional[asyncio.Task] = None
        self._watchdog: Optional[asyncio.Task] = None
        # One thread for *all* service work: folds keep their WAL total
        # order and queries never race the fold they read behind.
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service"
        )
        self._closing = False
        self._closed: Optional[asyncio.Event] = None
        self._worker_error: Optional[str] = None
        self._connections: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Recover, publish the boot snapshot, bind, spawn the tasks."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._executor, self.service.start)
        # Boot publish: /readyz and queries have a snapshot from minute
        # zero (after a crash it is the recovered — byte-identical — one).
        await loop.run_in_executor(self._executor, self.service.publish)
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        self._closed = asyncio.Event()
        self._worker = asyncio.ensure_future(self._ingest_worker())
        self._watchdog = asyncio.ensure_future(self._watchdog_loop())
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        if self._server is None or not self._server.sockets:
            raise ProtocolError("server not started")
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to the graceful drain→flush→publish exit."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, lambda: asyncio.ensure_future(self.shutdown()))

    async def serve_until_closed(self) -> None:
        """Block until :meth:`shutdown` completes (signal or explicit)."""
        if self._closed is not None:
            await self._closed.wait()

    async def shutdown(self) -> None:
        """Drain → flush → publish → release, exactly once."""
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Kick idle keep-alive connections loose so their handler tasks
        # finish instead of being cancelled at loop teardown.
        for writer in list(self._connections):
            writer.close()
        if self._queue is not None and not self._worker.done():
            await self._queue.put(None)  # drain sentinel: fold the rest, stop
        if self._worker is not None:
            await self._worker
        if self._watchdog is not None:
            self._watchdog.cancel()
            try:
                await self._watchdog
            except asyncio.CancelledError:
                pass
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._executor, self.service.flush)
        await loop.run_in_executor(self._executor, self.service.publish)
        await loop.run_in_executor(self._executor, self.service.close)
        self._executor.shutdown(wait=True)
        if self._closed is not None:
            self._closed.set()

    # ------------------------------------------------------------------
    # Background tasks
    # ------------------------------------------------------------------
    async def _ingest_worker(self) -> None:
        """Fold queued batches one at a time (the WAL's total order)."""
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            payload, future = item
            tenant = payload["tenant"]
            try:
                ack = await loop.run_in_executor(
                    self._executor,
                    lambda: self.service.ingest(
                        payload["tenant"],
                        payload["stream"],
                        payload["values"],
                        attribute=payload.get("attribute", 0),
                        idempotency_key=payload.get("idempotency_key"),
                    ),
                )
            except BaseException as error:  # noqa: BLE001 - forwarded to the client
                if not future.done():
                    future.set_exception(error)
                else:
                    future = None
                if not isinstance(error, ReproError):
                    # A non-repro error here is a worker bug: record it,
                    # flip /healthz, and stop rather than limp on (the
                    # finally below still marks this item done, once).
                    self._worker_error = f"{type(error).__name__}: {error}"
                    self._release_queued()
                    return
            else:
                if not future.done():
                    future.set_result(ack)
            finally:
                count = self._pending_by_tenant.get(tenant, 0) - 1
                if count > 0:
                    self._pending_by_tenant[tenant] = count
                else:
                    self._pending_by_tenant.pop(tenant, None)
                self._queue.task_done()

    def _release_queued(self) -> None:
        """Answer every batch queued behind a dead worker: none will fold.

        Each waiting request resolves to ``None``, which
        :meth:`_handle_report` answers with the worker's error.  Emptying
        the queue also frees a ``shutdown()`` blocked on the drain
        sentinel.
        """
        while not self._queue.empty():
            item = self._queue.get_nowait()
            self._queue.task_done()
            if item is not None and not item[1].done():
                item[1].set_result(None)

    async def _watchdog_loop(self) -> None:
        """Liveness + snapshot freshness: the publisher's dead-man switch."""
        loop = asyncio.get_running_loop()
        while not self._closing:
            await asyncio.sleep(self.config.watchdog_interval)
            if self._worker is not None and self._worker.done():
                if self._worker_error is None:
                    self._worker_error = "ingest worker exited unexpectedly"
                return
            pending = self.service.pending_records()
            if pending >= self.config.publish_threshold:
                try:
                    await loop.run_in_executor(self._executor, self.service.publish)
                except ReproError:
                    # Already retried inside the service; the next tick
                    # (or an explicit POST /v1/publish) tries again.
                    continue

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def _healthy(self) -> bool:
        return (
            self._worker_error is None
            and self._worker is not None
            and not self._worker.done()
        )

    def _readiness(self) -> Tuple[bool, dict]:
        snapshot = self.service.snapshot
        pending = self.service.pending_records()
        depth = 0 if self._queue is None else self._queue.qsize()
        detail = {
            "healthy": self._healthy(),
            "snapshot_published": snapshot is not None,
            "pending_records": pending,
            "queue_depth": depth,
            "queue_limit": self.config.queue_limit,
        }
        ready = (
            detail["healthy"]
            and snapshot is not None
            and not self._closing
            # Freshness: the watchdog publishes at publish_threshold, so
            # twice that means the publisher is wedged, not just behind.
            and pending < 2 * self.config.publish_threshold
            and depth < self.config.queue_limit
        )
        return ready, detail

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while not self._closing:
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), self.config.request_timeout
                    )
                except (
                    asyncio.TimeoutError,
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                ):
                    return
                except asyncio.LimitOverrunError:
                    await self._respond(writer, 413, {"error": "headers too large"})
                    return
                try:
                    method, target, headers = self._parse_head(head)
                except ValueError as error:
                    await self._respond(writer, 400, {"error": str(error)})
                    return
                declared = headers.get("content-length", "0") or "0"
                if not (declared.isascii() and declared.isdigit()):
                    error = f"Content-Length must be a byte count, got {declared!r}"
                    await self._respond(writer, 400, {"error": error})
                    return
                length = int(declared)
                if length > self.config.max_body_bytes:
                    await self._respond(
                        writer,
                        413,
                        {
                            "error": (
                                f"body of {length} bytes exceeds the "
                                f"{self.config.max_body_bytes}-byte limit"
                            )
                        },
                    )
                    return
                body = b""
                if length:
                    try:
                        body = await asyncio.wait_for(
                            reader.readexactly(length), self.config.request_timeout
                        )
                    except (asyncio.TimeoutError, asyncio.IncompleteReadError):
                        return
                status, payload, extra = await self._dispatch(method, target, headers, body)
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._respond(
                    writer, status, payload, extra_headers=extra, keep_alive=keep_alive
                )
                if not keep_alive:
                    return
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    def _parse_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError as error:  # pragma: no cover - latin-1 is total
            raise ValueError(f"undecodable request head: {error}") from error
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ValueError(f"malformed request line {lines[0]!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise ValueError(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        return parts[0].upper(), parts[1], headers

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Mapping[str, Any],
        *,
        extra_headers: Optional[Mapping[str, str]] = None,
        keep_alive: bool = False,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, target: str, headers: Mapping[str, str], body: bytes
    ) -> Tuple[int, dict, Optional[Dict[str, str]]]:
        split = urlsplit(target)
        path = split.path
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        try:
            if path == "/healthz":
                if method != "GET":
                    return 405, {"error": "use GET"}, None
                if self._healthy():
                    return 200, {"status": "ok"}, None
                return 503, {"status": "dead", "error": self._worker_error}, None
            if path == "/readyz":
                if method != "GET":
                    return 405, {"error": "use GET"}, None
                ready, detail = self._readiness()
                return (200 if ready else 503), {
                    "status": "ready" if ready else "not ready",
                    **detail,
                }, None
            if path == "/v1/report":
                if method != "POST":
                    return 405, {"error": "use POST"}, None
                return await self._handle_report(body)
            if path == "/v1/estimate":
                if method != "GET":
                    return 405, {"error": "use GET"}, None
                return await self._handle_estimate(query)
            if path == "/v1/publish":
                if method != "POST":
                    return 405, {"error": "use POST"}, None
                loop = asyncio.get_running_loop()
                info = await asyncio.wait_for(
                    loop.run_in_executor(self._executor, self.service.publish),
                    self.config.request_timeout,
                )
                return 200, info, None
            if path == "/v1/snapshot":
                if method != "GET":
                    return 405, {"error": "use GET"}, None
                snapshot = self.service.snapshot
                if snapshot is None:
                    return 409, {"error": "no snapshot published yet"}, None
                return 200, snapshot.info(), None
            if path == "/v1/status":
                if method != "GET":
                    return 405, {"error": "use GET"}, None
                loop = asyncio.get_running_loop()
                status = await loop.run_in_executor(
                    self._executor, self.service.status
                )
                ready, detail = self._readiness()
                status["ready"] = ready
                status["queue"] = detail
                return 200, status, None
            if path == "/v1/replicate":
                if method != "POST":
                    return 405, {"error": "use POST"}, None
                return await self._handle_replicate(headers, body)
            if path == "/v1/promote":
                if method != "POST":
                    return 405, {"error": "use POST"}, None
                promote = getattr(self.service, "promote", None)
                if promote is None:
                    raise NotReplicatedError("this node is not replicated; nothing to promote")
                loop = asyncio.get_running_loop()
                info = await asyncio.wait_for(
                    loop.run_in_executor(self._executor, promote),
                    self.config.request_timeout,
                )
                return 200, info, None
            return 404, {"error": f"unknown path {path!r}"}, None
        except asyncio.TimeoutError:
            return 408, {"error": "request deadline exceeded"}, None
        except Exception as error:  # noqa: BLE001 - answered, not dropped
            return rejection_answer(error)

    async def _handle_report(
        self, body: bytes
    ) -> Tuple[int, dict, Optional[Dict[str, str]]]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
            return 400, {"error": f"body must be JSON: {error}"}, None
        if not isinstance(payload, dict):
            return 400, {"error": "body must be a JSON object"}, None
        for field in ("tenant", "stream", "values"):
            if field not in payload:
                return 400, {"error": f"missing field {field!r}"}, None
        tenant = payload["tenant"]  # keys the queue slot the worker releases
        if not isinstance(tenant, str) or not tenant:
            return 400, {"error": f"tenant must be a non-empty string, got {tenant!r}"}, None
        if self._closing or self._queue is None:
            return 503, {"error": "service is draining"}, {"Retry-After": "1"}
        if self._worker_error is not None:
            # Nothing would fold a queued batch: refuse it now rather
            # than at the deadline.
            return 503, {"error": self._worker_error}, None
        depth = self._queue.qsize()
        retry_after = {"Retry-After": str(max(1, math.ceil(depth / 16)))}
        if self._pending_by_tenant.get(tenant, 0) >= self.config.tenant_queue_limit:
            return 429, {
                "error": (
                    f"tenant {tenant!r} has "
                    f"{self._pending_by_tenant[tenant]} batches queued "
                    f"(limit {self.config.tenant_queue_limit})"
                ),
            }, retry_after
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((payload, future))
        except asyncio.QueueFull:
            return 429, {
                "error": f"ingest queue full ({depth} batches)",
            }, retry_after
        self._pending_by_tenant[tenant] = self._pending_by_tenant.get(tenant, 0) + 1
        try:
            ack = await asyncio.wait_for(future, self.config.request_timeout)
        except asyncio.TimeoutError:
            # The batch stays queued and will still fold (and is or will
            # be WAL-durable); only the acknowledgement timed out.
            return 503, {"error": "ingest deadline exceeded; batch queued"}, None
        if ack is None:  # released unfolded by a dead worker
            return 503, {"error": self._worker_error}, None
        return 200, ack, None

    async def _handle_replicate(
        self, headers: Mapping[str, str], body: bytes
    ) -> Tuple[int, dict, Optional[Dict[str, str]]]:
        apply = getattr(self.service, "apply_replication", None)
        if apply is None:
            raise NotReplicatedError("this node is not replicated; it accepts no frames")
        shipment = read_shipment(headers, body)
        loop = asyncio.get_running_loop()
        try:
            # Same single-thread executor as ingest: applied frames and
            # local folds share one total order, exactly like the WAL.
            result = await asyncio.wait_for(
                loop.run_in_executor(self._executor, lambda: apply(shipment)),
                self.config.request_timeout,
            )
        except ParameterError as error:
            # A torn/corrupt frame fails its crc inside decode_frame —
            # typed so the primary re-ships instead of guessing.
            raise BadFrameError(str(error)) from error
        return 200, result, None

    async def _handle_estimate(
        self, query: Mapping[str, str]
    ) -> Tuple[int, dict, Optional[Dict[str, str]]]:
        tenant = query.get("tenant")
        if not tenant:
            return 400, {"error": "missing query parameter 'tenant'"}, None
        kind = query.get("kind", "join")
        streams = [s for s in (query.get("streams", "").split(",")) if s]
        loop = asyncio.get_running_loop()
        if kind == "join":
            if len(streams) != 2:
                return 400, {
                    "error": "kind=join needs streams=<a>,<b>",
                }, None
            window = None
            if "window" in query:
                try:
                    window = int(query["window"])
                except ValueError:
                    return 400, {
                        "error": f"window must be an integer epoch count, "
                        f"got {query['window']!r}",
                    }, None
            call = lambda: self.service.estimate(
                tenant, streams[0], streams[1], window=window
            )
        elif kind == "chain":
            if len(streams) < 2:
                return 400, {"error": "kind=chain needs streams=<a>,<b>,..."}, None
            call = lambda: self.service.estimate_chain(tenant, streams)
        elif kind == "frequencies":
            if len(streams) != 1:
                return 400, {"error": "kind=frequencies needs streams=<a>"}, None
            raw = [v for v in query.get("values", "").split(",") if v]
            if not raw:
                return 400, {"error": "kind=frequencies needs values=1,2,3"}, None
            try:
                values = [int(v) for v in raw]
            except ValueError:
                return 400, {"error": f"values must be integers, got {raw}"}, None
            method = query.get("method", "mean")
            call = lambda: self.service.frequencies(
                tenant, streams[0], values, method=method
            )
        else:
            return 400, {
                "error": f"unknown kind {kind!r} (join | chain | frequencies)",
            }, None
        result = await asyncio.wait_for(
            loop.run_in_executor(self._executor, call), self.config.request_timeout
        )
        return 200, result, None


async def run_server(
    service: AggregationService,
    config: Optional[ServerConfig] = None,
    *,
    handle_signals: bool = True,
    on_listening=None,
) -> None:
    """Start ``service`` behind a :class:`ServiceServer` and run to exit.

    ``on_listening`` (if given) receives the bound ``(host, port)`` once
    the socket is live — the CLI and ``python -m repro.service`` print it
    so supervisors and tests can connect without racing the bind.
    """
    server = ServiceServer(service, config)
    host, port = await server.start()
    if handle_signals:
        server.install_signal_handlers()
    if on_listening is not None:
        on_listening(host, port)
    await server.serve_until_closed()
