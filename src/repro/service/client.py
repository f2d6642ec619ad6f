"""Failover-aware client for the replicated aggregation service.

:class:`ResilientClient` is the piece that turns the server-side
machinery (WAL-durable dedup ledger, typed 409 rejections, standby
snapshots) into an end-to-end story: a caller hands it a batch once and
the client wears every transient failure — connection loss, draining
nodes, quorum shortfalls, a failover that moved the primary — without
ever double-counting.

Three mechanisms, all deterministic:

**Exactly-once writes.**  Every batch carries an idempotency key
(caller-supplied or minted as ``"<client_id>-<counter>"``), so the
retry loop can be aggressive: whether an ack was lost in transit or a
quorum round fell short, resubmitting the same key converges the
cluster and returns the original acknowledgement.

**Re-targeting.**  A typed 409 (``error_kind`` of ``fenced`` /
``not_primary``) or a connection failure means "this node is not the
primary anymore"; the client probes ``/v1/status`` across its endpoint
list for a node reporting ``role == "primary"`` and resumes there.
Promotion mid-stream is invisible to the caller.

**Per-endpoint circuit breakers.**  Breakers are counter-based — a
node that fails :attr:`CircuitBreaker.failure_threshold` consecutive
operations is skipped for the next :attr:`CircuitBreaker.cooldown`
considerations, then probed half-open.  Counting *considerations*
instead of wall-clock seconds keeps chaos schedules replayable: the
same operation sequence always opens and closes the same breakers.

**Hedged reads.**  Queries (status, estimates, snapshots) can be
answered by any node that publishes snapshots — standbys included.
:meth:`ResilientClient.estimate` sends to the preferred node first and,
after ``hedge_delay`` seconds without an answer, races the remaining
endpoints; the first success wins.  Reads stay fast while a node is
wedged without doubling load in the happy path.

The client is synchronous (``http.client``) by design: it is used from
benchmarks, chaos harnesses and operator tooling, none of which run an
event loop.
"""

from __future__ import annotations

import concurrent.futures
import time
from typing import List, Optional, Sequence, Tuple, Union
from urllib.parse import urlencode

from ..errors import ParameterError, ProtocolError, ReproError, RetryExhaustedError
from ..reliability.retry import AttemptRecord
from .wire import parse_address, rejection_error, request

__all__ = ["ResilientClient", "CircuitBreaker", "ClientReport"]


class CircuitBreaker:
    """Deterministic consecutive-failure breaker for one endpoint.

    States: *closed* (normal), *open* (skip this endpoint), *half-open*
    (allow one probe).  ``failure_threshold`` consecutive failures open
    the breaker; it stays open for ``cooldown`` calls to :meth:`allow`,
    then half-opens — a success closes it, a failure re-opens it for
    another full cooldown.  No wall clock anywhere, so a replayed
    operation sequence drives the breaker through identical states.
    """

    def __init__(self, *, failure_threshold: int = 3, cooldown: int = 8) -> None:
        if failure_threshold < 1:
            raise ParameterError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown < 1:
            raise ParameterError(f"cooldown must be >= 1, got {cooldown}")
        self.failure_threshold = int(failure_threshold)
        self.cooldown = int(cooldown)
        self._failures = 0
        self._skips_left = 0
        self._half_open = False

    @property
    def state(self) -> str:
        if self._half_open:
            return "half-open"
        if self._skips_left > 0:
            return "open"
        return "closed"

    def allow(self) -> bool:
        """Whether the next operation may use this endpoint."""
        if self._skips_left > 0:
            self._skips_left -= 1
            if self._skips_left == 0:
                self._half_open = True
            return False
        return True

    def record_success(self) -> None:
        self._failures = 0
        self._half_open = False
        self._skips_left = 0

    def record_failure(self) -> None:
        self._failures += 1
        if self._half_open or self._failures >= self.failure_threshold:
            self._half_open = False
            self._failures = 0
            self._skips_left = self.cooldown


class _Endpoint:
    """One service address plus its breaker state."""

    def __init__(self, host: str, port: int, breaker: CircuitBreaker) -> None:
        self.host = str(host)
        self.port = int(port)
        self.breaker = breaker
        self.name = f"{self.host}:{self.port}"


class ClientReport(dict):
    """An ingest acknowledgement plus the client-side delivery story."""

    @property
    def deduplicated(self) -> bool:
        return bool(self.get("deduplicated", False))


class ResilientClient:
    """Retrying, re-targeting, hedging client over N service endpoints.

    ``endpoints`` lists every node of the replication group (primary
    first by convention, but the client discovers the actual primary by
    probing ``/v1/status``).  ``max_attempts`` bounds one logical
    write's delivery attempts across all endpoints; ``backoff`` seconds
    (default 0 — chaos tests want speed, production wants ~0.05) are
    slept between consecutive attempts.
    """

    def __init__(
        self,
        endpoints: Sequence[Union[str, Tuple[str, int]]],
        *,
        client_id: str = "client",
        max_attempts: int = 8,
        timeout: float = 10.0,
        hedge_delay: float = 0.05,
        backoff: float = 0.0,
        failure_threshold: int = 3,
        cooldown: int = 8,
    ) -> None:
        if not endpoints:
            raise ParameterError("need at least one endpoint")
        if max_attempts < 1:
            raise ParameterError(f"max_attempts must be >= 1, got {max_attempts}")
        if timeout <= 0 or hedge_delay < 0 or backoff < 0:
            raise ParameterError("timeout must be > 0; delays must be >= 0")
        self.client_id = str(client_id)
        self.max_attempts = int(max_attempts)
        self.timeout = float(timeout)
        self.hedge_delay = float(hedge_delay)
        self.backoff = float(backoff)
        self._endpoints: List[_Endpoint] = [
            _Endpoint(
                *parse_address(value),
                CircuitBreaker(
                    failure_threshold=failure_threshold, cooldown=cooldown
                ),
            )
            for value in endpoints
        ]
        self._target = 0  # index of the endpoint believed to be primary
        self._counter = 0  # idempotency-key mint

    # ------------------------------------------------------------------
    # Raw HTTP
    # ------------------------------------------------------------------
    def _request(self, endpoint: _Endpoint, method: str, path: str, payload=None):
        """``(status, JSON body)`` of one request to ``endpoint``."""
        return request(endpoint.host, endpoint.port, method, path, payload, timeout=self.timeout)

    def _call(self, endpoint: _Endpoint, method: str, path: str) -> dict:
        """One request whose non-2xx answer raises its typed error."""
        status, body = self._request(endpoint, method, path)
        if status >= 300:
            raise rejection_error(status, body, endpoint.name)
        return body

    # ------------------------------------------------------------------
    # Target selection
    # ------------------------------------------------------------------
    def _candidates(self) -> List[_Endpoint]:
        """Endpoints to try, preferred target first, breakers consulted.

        If every breaker is open the full list is returned anyway — an
        all-open fleet means the breaker counters are stale, and trying
        is strictly better than failing without a packet sent.
        """
        ordered = (
            self._endpoints[self._target :] + self._endpoints[: self._target]
        )
        allowed = [endpoint for endpoint in ordered if endpoint.breaker.allow()]
        return allowed or ordered

    def _retarget(self) -> None:
        """Probe ``/v1/status`` for the current primary; else rotate."""
        for index, endpoint in enumerate(self._endpoints):
            try:
                status, body = self._request(endpoint, "GET", "/v1/status")
            except (ConnectionError, ProtocolError):
                continue
            if status == 200 and body.get("role") == "primary":
                self._target = index
                return
        self._target = (self._target + 1) % len(self._endpoints)

    # ------------------------------------------------------------------
    # Writes: exactly-once ingest
    # ------------------------------------------------------------------
    def ingest(
        self,
        tenant: str,
        stream: str,
        values: Sequence[int],
        *,
        attribute: int = 0,
        idempotency_key: Optional[str] = None,
    ) -> ClientReport:
        """Deliver one batch exactly once; returns the service ack.

        Retries across endpoints on connection loss, 429/503, and typed
        409 re-target signals, always resubmitting the *same*
        idempotency key — the server's WAL-durable ledger makes the
        retries safe.  Raises
        :class:`~repro.errors.RetryExhaustedError` with the full
        attempt ledger when ``max_attempts`` deliveries all failed.
        """
        if idempotency_key is None:
            self._counter += 1
            idempotency_key = f"{self.client_id}-{self._counter}"
        payload = {
            "tenant": tenant,
            "stream": stream,
            "values": list(values),
            "attribute": int(attribute),
            "idempotency_key": idempotency_key,
        }
        operation = f"client.ingest[{idempotency_key}]"
        attempts: List[AttemptRecord] = []
        for attempt in range(self.max_attempts):
            if attempt and self.backoff:
                time.sleep(self.backoff * attempt)
            candidates = self._candidates()
            endpoint = candidates[0]
            started = time.monotonic()
            try:
                status, body = self._request(endpoint, "POST", "/v1/report", payload)
            except (ConnectionError, ProtocolError) as error:
                endpoint.breaker.record_failure()
                attempts.append(
                    self._attempt(attempt, operation, error, started)
                )
                self._retarget()
                continue
            if status < 300:
                endpoint.breaker.record_success()
                report = ClientReport(body)
                report["endpoint"] = endpoint.name
                report["attempts"] = attempt + 1
                report["idempotency_key"] = idempotency_key
                return report
            error = rejection_error(status, body, endpoint.name)
            attempts.append(self._attempt(attempt, operation, error, started))
            if status == 409:
                # The node is alive and answered — its breaker is fine;
                # it just must not take writes.  Find who does.
                endpoint.breaker.record_success()
                self._retarget()
                continue
            if status in (408, 429, 503):
                endpoint.breaker.record_failure()
                if status == 503 and body.get("error_kind") == "quorum":
                    # The primary is fine; its standbys are behind.
                    endpoint.breaker.record_success()
                continue
            raise error  # 400s and unknowns: retrying cannot fix these
        raise RetryExhaustedError(operation, attempts)

    @staticmethod
    def _attempt(
        attempt: int, operation: str, error: Exception, started: float
    ) -> AttemptRecord:
        return AttemptRecord(
            attempt=attempt + 1,
            operation=operation,
            error_type=type(error).__name__,
            message=str(error),
            delay=0.0,
            elapsed=time.monotonic() - started,
        )

    # ------------------------------------------------------------------
    # Reads: hedged across the replication group
    # ------------------------------------------------------------------
    def _hedged(self, method: str, path: str) -> dict:
        """First-success-wins read: preferred node, then the field.

        The preferred endpoint gets ``hedge_delay`` seconds of exclusive
        runway; only if it has not answered are the remaining endpoints
        raced.  Failures (connection loss, non-2xx) are discarded as
        long as someone succeeds; if everyone fails the last error
        propagates.
        """
        candidates = self._candidates()
        errors: List[Exception] = []

        def attempt(endpoint: _Endpoint) -> dict:
            body = self._call(endpoint, method, path)
            endpoint.breaker.record_success()
            body["endpoint"] = endpoint.name
            return body

        pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, len(candidates)), thread_name_prefix="repro-hedge"
        )
        try:
            pending = {pool.submit(attempt, candidates[0]): candidates[0]}
            hedged = False
            while pending:
                timeout = None if hedged or len(candidates) == 1 else self.hedge_delay
                done, _ = concurrent.futures.wait(
                    pending,
                    timeout=timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                for future in done:
                    endpoint = pending.pop(future)
                    try:
                        return future.result()
                    except (ConnectionError, ProtocolError, ReproError) as error:
                        endpoint.breaker.record_failure()
                        errors.append(error)
                if not done and not hedged:
                    # Preferred node is slow: open the race.
                    hedged = True
                    for endpoint in candidates[1:]:
                        pending[pool.submit(attempt, endpoint)] = endpoint
                elif not pending and not hedged and len(candidates) > 1:
                    # Preferred node failed fast: try the rest serially
                    # through the same race machinery.
                    hedged = True
                    for endpoint in candidates[1:]:
                        pending[pool.submit(attempt, endpoint)] = endpoint
                elif done:
                    hedged = True  # keep draining whatever is in flight
        finally:
            pool.shutdown(wait=False)
        raise errors[-1] if errors else ProtocolError(f"no endpoint answered {path}")

    def status(self) -> dict:
        """Hedged ``GET /v1/status`` (any node may answer)."""
        return self._hedged("GET", "/v1/status")

    def snapshot(self) -> dict:
        """Hedged ``GET /v1/snapshot``: the latest published identity."""
        return self._hedged("GET", "/v1/snapshot")

    def estimate(
        self,
        tenant: str,
        stream_a: str,
        stream_b: str,
        *,
        window: Optional[int] = None,
    ) -> dict:
        """Hedged join-size estimate between two of a tenant's streams.

        ``window=W`` restricts the estimate to the newest ``W`` temporal
        epochs (the service must run with ``epoch_interval > 0``).
        """
        query = {"tenant": tenant, "kind": "join", "streams": f"{stream_a},{stream_b}"}
        if window is not None:
            query["window"] = int(window)
        return self._hedged("GET", "/v1/estimate?" + urlencode(query))

    def publish(self) -> dict:
        """Force a publish on the preferred (primary) node — not hedged."""
        return self._call(self._candidates()[0], "POST", "/v1/publish")

    def promote(self, endpoint_index: int) -> dict:
        """Operator action: promote a specific endpoint to primary."""
        try:
            endpoint = self._endpoints[int(endpoint_index)]
        except IndexError as error:
            raise ParameterError(
                f"endpoint index {endpoint_index} out of range "
                f"(have {len(self._endpoints)})"
            ) from error
        body = self._call(endpoint, "POST", "/v1/promote")
        self._target = int(endpoint_index)
        return body
