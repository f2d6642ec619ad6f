"""Load generator for the online aggregation service (``repro.service``).

Drives the real asyncio HTTP server end to end — socket, HTTP/1.1
parsing, admission control, WAL append + fsync, session fold — with a
handful of keep-alive client connections POSTing batched reports, then
measures query latency against the published snapshot.  The numbers land
in the ``service`` section of ``BENCH_perf.json`` (schema v6):

* ``ingest_reports_per_sec`` — sustained acknowledged-report throughput
  over the whole load phase (every report durably in the WAL before its
  ack), the number CI's ``--min-service-ingest`` floor reads;
* ``ingest_p50_ms`` / ``ingest_p99_ms`` — per-batch ack latency;
* ``query_p50_ms`` / ``query_p99_ms`` — ``GET /v1/estimate`` latency
  against the published snapshot (join-size queries);
* ``throttled`` — 429 responses absorbed by the generator's retry loop
  (0 under the default shape: each connection awaits its ack before the
  next batch, so at most ``connections`` batches are ever in flight);
* ``quorum_ingest_reports_per_sec`` (schema v6) — the same acknowledged
  throughput through a primary/standby pair in ``ack_mode=quorum``:
  every ack now additionally waits for the standby to apply the shipped
  WAL frame over HTTP, so this is the replicated durability price.  CI's
  ``--min-quorum-ingest`` floor reads it; ``quorum_digest_match``
  certifies the two nodes published byte-identical snapshots at the end;
* ``window_estimates_per_sec`` (schema v7) — sustained
  ``GET /v1/estimate?window=W`` throughput against a service running
  with ``epoch_interval`` set, each query tree-merging the newest
  epoch partials and running the full estimate pipeline.  CI's
  ``--min-window-estimate`` floor reads it;
  ``window_ingest_reports_per_sec`` is acknowledged ingest with
  temporal epoch folding enabled (the ring-maintenance price).

Standalone usage::

    PYTHONPATH=src python benchmarks/perf/bench_service.py [--quick]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.service import (
    AggregationService,
    HttpReplica,
    ReplicatedService,
    ServerConfig,
    ServiceConfig,
    ServiceServer,
)

__all__ = ["run_service_bench", "main"]

#: Total acknowledged reports of the load phase.
FULL_REPORTS = 1_000_000
QUICK_REPORTS = 100_000

#: Total acknowledged reports of the replicated (quorum-ack) phase.  Each
#: ack pays a synchronous HTTP ship to the standby, so the leg is sized
#: down to keep the suite's wall-clock bounded without losing the rate.
FULL_REPLICATED = 250_000
QUICK_REPLICATED = 50_000

#: Reports per ``POST /v1/report`` batch (~12 KiB of JSON).
BATCH_REPORTS = 2048

#: Concurrent keep-alive client connections.
CONNECTIONS = 4

#: ``GET /v1/estimate`` samples of the query-latency phase.
FULL_QUERIES = 1_000
QUICK_QUERIES = 200

#: Total acknowledged reports of the windowed (temporal) phase, and the
#: ``GET /v1/estimate?window=W`` samples timed against the ring.
FULL_WINDOWED = 250_000
QUICK_WINDOWED = 50_000
FULL_WINDOW_QUERIES = 200
QUICK_WINDOW_QUERIES = 50

#: Temporal shape of the windowed leg: one epoch per 8 WAL records, an
#: 8-epoch ring, and a 4-epoch sliding window per query.
WINDOW_EPOCH_INTERVAL = 8
WINDOW_EPOCHS = 8
WINDOW_QUERY = 4

SERVICE_SEED = 20240101


class _Client:
    """Minimal keep-alive HTTP/1.1 client over asyncio streams."""

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )

    async def request(
        self, method: str, target: str, body: Optional[bytes] = None
    ) -> Tuple[int, dict, Dict[str, str]]:
        payload = b"" if body is None else body
        head = (
            f"{method} {target} HTTP/1.1\r\n"
            f"Host: {self._host}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("ascii")
        self._writer.write(head + payload)
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        return status, (json.loads(raw) if raw else {}), headers

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def _build_batches(total_reports: int) -> List[bytes]:
    """Pre-serialised report bodies, alternating streams A and B."""
    rng = np.random.default_rng(SERVICE_SEED)
    batches: List[bytes] = []
    remaining = total_reports
    index = 0
    while remaining > 0:
        size = min(BATCH_REPORTS, remaining)
        values = rng.integers(0, 1 << 16, size=size)
        body = {
            "tenant": "bench",
            "stream": "A" if index % 2 == 0 else "B",
            "values": values.tolist(),
        }
        batches.append(json.dumps(body).encode("ascii"))
        remaining -= size
        index += 1
    return batches


async def _drive(
    address: Tuple[str, int],
    batches: List[bytes],
    latencies_ms: List[float],
    counters: Dict[str, int],
) -> None:
    """One connection: POST its batch share, retrying 429s after Retry-After."""
    client = _Client(*address)
    await client.connect()
    try:
        for body in batches:
            while True:
                start = time.perf_counter()
                status, _, headers = await client.request(
                    "POST", "/v1/report", body
                )
                elapsed_ms = (time.perf_counter() - start) * 1e3
                if status == 429:
                    counters["throttled"] += 1
                    await asyncio.sleep(float(headers.get("retry-after", "1")))
                    continue
                if status != 200:
                    raise RuntimeError(f"ingest rejected with HTTP {status}")
                latencies_ms.append(elapsed_ms)
                break
    finally:
        await client.close()


async def _run(total_reports: int, queries: int, data_dir: Path) -> dict:
    service = AggregationService(
        ServiceConfig(
            data_dir=data_dir,
            seed=SERVICE_SEED,
        )
    )
    server = ServiceServer(
        service,
        ServerConfig(
            port=0,
            queue_limit=256,
            tenant_queue_limit=256,
            # Keep the watchdog out of the timed window: publishes are
            # measured explicitly below, not triggered mid-load.
            publish_threshold=1_000_000,
        ),
    )
    address = await server.start()
    try:
        batches = _build_batches(total_reports)
        shares: List[List[bytes]] = [[] for _ in range(CONNECTIONS)]
        for index, body in enumerate(batches):
            shares[index % CONNECTIONS].append(body)

        ingest_ms: List[float] = []
        counters = {"throttled": 0}
        load_start = time.perf_counter()
        await asyncio.gather(
            *(_drive(address, share, ingest_ms, counters) for share in shares)
        )
        ingest_seconds = time.perf_counter() - load_start

        client = _Client(*address)
        await client.connect()
        try:
            publish_start = time.perf_counter()
            status, snapshot, _ = await client.request("POST", "/v1/publish")
            publish_seconds = time.perf_counter() - publish_start
            if status != 200:
                raise RuntimeError(f"publish failed with HTTP {status}")
            target = "/v1/estimate?tenant=bench&kind=join&streams=A,B"
            query_ms: List[float] = []
            for _ in range(queries):
                start = time.perf_counter()
                status, _, _ = await client.request("GET", target)
                query_ms.append((time.perf_counter() - start) * 1e3)
                if status != 200:
                    raise RuntimeError(f"query failed with HTTP {status}")
        finally:
            await client.close()
        wal_bytes = (data_dir / "wal.log").stat().st_size
    finally:
        await server.shutdown()

    ingest = np.asarray(ingest_ms)
    query = np.asarray(query_ms)
    return {
        "n": total_reports,
        "batch_reports": BATCH_REPORTS,
        "batches": len(batches),
        "connections": CONNECTIONS,
        "throttled": counters["throttled"],
        "ingest_seconds": ingest_seconds,
        "ingest_reports_per_sec": (
            total_reports / ingest_seconds if ingest_seconds > 0 else float("inf")
        ),
        "ingest_p50_ms": float(np.percentile(ingest, 50)),
        "ingest_p99_ms": float(np.percentile(ingest, 99)),
        "publish_seconds": publish_seconds,
        "snapshot_wal_records": snapshot.get("wal_records", 0),
        "queries": len(query_ms),
        "query_p50_ms": float(np.percentile(query, 50)),
        "query_p99_ms": float(np.percentile(query, 99)),
        "wal_bytes": wal_bytes,
    }


async def _run_replicated(total_reports: int, data_dir: Path) -> dict:
    """Quorum-ack load: primary + one HTTP standby, acks held for both.

    The standby runs as a second real HTTP server; the primary ships each
    appended WAL frame to it (``POST /v1/replicate``) before
    acknowledging, so every measured ack covers two fsyncs and one
    loopback round-trip — the replicated durability price the README
    quotes.  At the end both nodes publish and the digests must match.
    """
    standby = ReplicatedService(
        ServiceConfig(
            data_dir=data_dir / "standby",
            seed=SERVICE_SEED,
        ),
        role="standby",
    )
    standby_server = ServiceServer(
        standby,
        ServerConfig(port=0, queue_limit=256, publish_threshold=1_000_000),
    )
    standby_address = await standby_server.start()
    primary_server = None
    try:
        primary = ReplicatedService(
            ServiceConfig(
                data_dir=data_dir / "primary",
                    seed=SERVICE_SEED,
            ),
            role="primary",
            replicas=[HttpReplica(*standby_address)],
            ack_mode="quorum",
        )
        primary_server = ServiceServer(
            primary,
            ServerConfig(
                port=0,
                queue_limit=256,
                tenant_queue_limit=256,
                publish_threshold=1_000_000,
            ),
        )
        address = await primary_server.start()

        batches = _build_batches(total_reports)
        shares: List[List[bytes]] = [[] for _ in range(CONNECTIONS)]
        for index, body in enumerate(batches):
            shares[index % CONNECTIONS].append(body)
        ingest_ms: List[float] = []
        counters = {"throttled": 0}
        load_start = time.perf_counter()
        await asyncio.gather(
            *(_drive(address, share, ingest_ms, counters) for share in shares)
        )
        ingest_seconds = time.perf_counter() - load_start

        digests = []
        for node in (address, standby_address):
            client = _Client(*node)
            await client.connect()
            try:
                status, snapshot, _ = await client.request("POST", "/v1/publish")
                if status != 200:
                    raise RuntimeError(f"publish failed with HTTP {status}")
                digests.append(snapshot.get("digest"))
            finally:
                await client.close()
    finally:
        if primary_server is not None:
            await primary_server.shutdown()
        await standby_server.shutdown()

    ingest = np.asarray(ingest_ms)
    return {
        "quorum_n": total_reports,
        "quorum_replicas": 1,
        "quorum_throttled": counters["throttled"],
        "quorum_seconds": ingest_seconds,
        "quorum_ingest_reports_per_sec": (
            total_reports / ingest_seconds if ingest_seconds > 0 else float("inf")
        ),
        "quorum_ingest_p50_ms": float(np.percentile(ingest, 50)),
        "quorum_ingest_p99_ms": float(np.percentile(ingest, 99)),
        "quorum_digest_match": (
            1.0 if digests[0] is not None and digests[0] == digests[1] else 0.0
        ),
    }


async def _run_windowed(total_reports: int, queries: int, data_dir: Path) -> dict:
    """Temporal leg: epoch-rolling ingest, then sliding-window queries.

    The service runs with ``epoch_interval`` set, so every fold also
    lands in the epoch ring; each timed query then tree-merges the
    newest ``WINDOW_QUERY`` epoch partials and runs the full estimate
    pipeline (FWHT + Eq. (5)) on the merged accumulators — no publish
    required.  ``window_estimates_per_sec`` is the number CI's
    ``--min-window-estimate`` floor reads.
    """
    service = AggregationService(
        ServiceConfig(
            data_dir=data_dir,
            seed=SERVICE_SEED,
            epoch_interval=WINDOW_EPOCH_INTERVAL,
            window_epochs=WINDOW_EPOCHS,
        )
    )
    server = ServiceServer(
        service,
        ServerConfig(
            port=0,
            queue_limit=256,
            tenant_queue_limit=256,
            publish_threshold=1_000_000,
        ),
    )
    address = await server.start()
    try:
        batches = _build_batches(total_reports)
        shares: List[List[bytes]] = [[] for _ in range(CONNECTIONS)]
        for index, body in enumerate(batches):
            shares[index % CONNECTIONS].append(body)
        ingest_ms: List[float] = []
        counters = {"throttled": 0}
        load_start = time.perf_counter()
        await asyncio.gather(
            *(_drive(address, share, ingest_ms, counters) for share in shares)
        )
        ingest_seconds = time.perf_counter() - load_start

        client = _Client(*address)
        await client.connect()
        try:
            target = (
                "/v1/estimate?tenant=bench&kind=join&streams=A,B"
                f"&window={WINDOW_QUERY}"
            )
            query_ms: List[float] = []
            query_start = time.perf_counter()
            for _ in range(queries):
                start = time.perf_counter()
                status, _, _ = await client.request("GET", target)
                query_ms.append((time.perf_counter() - start) * 1e3)
                if status != 200:
                    raise RuntimeError(f"window query failed with HTTP {status}")
            query_seconds = time.perf_counter() - query_start
            status, report, _ = await client.request("GET", "/v1/status")
            if status != 200:
                raise RuntimeError(f"status failed with HTTP {status}")
            temporal = report.get("temporal") or {}
        finally:
            await client.close()
    finally:
        await server.shutdown()

    query = np.asarray(query_ms)
    return {
        "window_n": total_reports,
        "window_epoch_interval": WINDOW_EPOCH_INTERVAL,
        "window_epochs": WINDOW_EPOCHS,
        "window_query_epochs": WINDOW_QUERY,
        "window_throttled": counters["throttled"],
        "window_ingest_seconds": ingest_seconds,
        "window_ingest_reports_per_sec": (
            total_reports / ingest_seconds if ingest_seconds > 0 else float("inf")
        ),
        "window_closed_epochs": temporal.get("epoch", 0),
        "window_queries": len(query_ms),
        "window_query_p50_ms": float(np.percentile(query, 50)),
        "window_query_p99_ms": float(np.percentile(query, 99)),
        "window_estimates_per_sec": (
            len(query_ms) / query_seconds if query_seconds > 0 else float("inf")
        ),
    }


def run_service_bench(quick: bool = False) -> dict:
    """Run the load generator against a fresh service; returns the section."""
    total_reports = QUICK_REPORTS if quick else FULL_REPORTS
    queries = QUICK_QUERIES if quick else FULL_QUERIES
    replicated_reports = QUICK_REPLICATED if quick else FULL_REPLICATED
    windowed_reports = QUICK_WINDOWED if quick else FULL_WINDOWED
    window_queries = QUICK_WINDOW_QUERIES if quick else FULL_WINDOW_QUERIES
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as tmp:
        section = asyncio.run(_run(total_reports, queries, Path(tmp)))
    with tempfile.TemporaryDirectory(prefix="repro-bench-replicated-") as tmp:
        section.update(asyncio.run(_run_replicated(replicated_reports, Path(tmp))))
    with tempfile.TemporaryDirectory(prefix="repro-bench-windowed-") as tmp:
        section.update(
            asyncio.run(_run_windowed(windowed_reports, window_queries, Path(tmp)))
        )
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small-n smoke mode")
    args = parser.parse_args(argv)
    section = run_service_bench(quick=args.quick)
    print(json.dumps(section, indent=2, sort_keys=True))
    print(
        f"[bench] service ingest {section['ingest_reports_per_sec']:,.0f} "
        f"reports/s over {section['connections']} connections "
        f"(ack p50 {section['ingest_p50_ms']:.2f}ms, "
        f"p99 {section['ingest_p99_ms']:.2f}ms); query p50 "
        f"{section['query_p50_ms']:.2f}ms, p99 {section['query_p99_ms']:.2f}ms"
    )
    print(
        f"[bench] quorum-ack ingest "
        f"{section['quorum_ingest_reports_per_sec']:,.0f} reports/s with "
        f"{section['quorum_replicas']} standby (ack p50 "
        f"{section['quorum_ingest_p50_ms']:.2f}ms, p99 "
        f"{section['quorum_ingest_p99_ms']:.2f}ms), digest match="
        f"{bool(section['quorum_digest_match'])}"
    )
    print(
        f"[bench] windowed estimate {section['window_estimates_per_sec']:,.0f} "
        f"queries/s over a {section['window_query_epochs']}-epoch window "
        f"(p50 {section['window_query_p50_ms']:.2f}ms, p99 "
        f"{section['window_query_p99_ms']:.2f}ms); temporal ingest "
        f"{section['window_ingest_reports_per_sec']:,.0f} reports/s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
