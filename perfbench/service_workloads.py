"""The two service workloads: ``ingest-quorum`` and ``window-mixed``.

Each node is a real ``python -m repro.service`` process; the benchmark
process drives it over keep-alive HTTP connections in a closed loop (a
connection sends its next request only after the previous answer, as
the bundled ``ResilientClient`` does).  Every batch carries a unique
``idempotency_key``.  All request bodies are generated from the seed
before the first node starts, and that generation is not timed.

Ingest, estimate and recovery costs are reported in CPU time of the
system's processes (:func:`harness.cpu_seconds`), not wall time.  On a shared
2-vCPU host the hypervisor steals 15-25% of the CPU for minutes at a
time; every batch passes through several processes, so a stolen vCPU
stalls them all, and the wall-clock ingest rate of ingest-quorum halved
in such periods.  Each phase runs in blocks spread over the run, and a
cost is the median of its blocks' costs.  The wall-clock figures the
client saw and every block's figure are recorded in the run's metadata
line (``wall``, ``blocks``), unbounded.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from harness import (
    BenchError,
    Connection,
    Node,
    Processes,
    Tally,
    cpu_seconds,
    median,
    now_ns,
    vm_hwm_mb,
)

TENANT = "bench"
JOIN_QUERY = f"/v1/estimate?tenant={TENANT}&kind=join&streams=A,B"
#: Window of the window-mixed queries, in epochs (open epoch included).
WINDOW = 4
WINDOW_QUERY = f"{JOIN_QUERY}&window={WINDOW}"


@dataclass
class Request:
    """One client request as the benchmark saw it."""

    kind: str  #: ingest | query | window
    start: int  #: ns, shared monotonic clock
    end: int
    ok: bool
    rid: Optional[int] = None  #: WAL sequence from the ack (ingest)
    reports: int = 0  #: reports acknowledged (ingest)


@dataclass
class ServiceRun:
    """What one service workload run measured (plus what tracing needs)."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Wall-clock figures as the client saw them (metadata, unbounded).
    wall: Dict[str, float] = field(default_factory=dict)
    #: Per-layer figures an untraced pass measures exactly (WAL bytes).
    layer: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-block costs behind each CPU-time metric (metadata).
    blocks: Dict[str, List[float]] = field(default_factory=dict)
    requests: List[Request] = field(default_factory=list)

    def acked(self) -> List[Request]:
        return [r for r in self.requests if r.kind == "ingest" and r.ok]

    @property
    def batches(self) -> int:
        return len(self.acked())

    @property
    def reports(self) -> int:
        return sum(r.reports for r in self.acked())


def chunks(items: Sequence, count: int) -> List[Sequence]:
    """``items`` cut into ``count`` contiguous, nearly equal blocks."""
    return [items[len(items) * i // count : len(items) * (i + 1) // count] for i in range(count)]


def block_cost(run: ServiceRun, metric: str, costs: List[float], scale: float, unit: str,
               invert: bool = False) -> None:
    """Report the median of per-block ``costs`` (x ``scale``) as ``metric``.

    With ``invert``, the metric is a rate: one over the median cost.
    The blocks' own figures, in the metric's unit, go to the metadata.
    """
    if not costs:
        raise BenchError(f"no block of the run measured {metric}")

    def value(cost: float) -> float:
        return (1.0 / cost if invert else cost) * scale

    run.blocks[metric] = [value(cost) for cost in costs]
    run.metrics[metric] = (value(median(costs)), unit)


def make_bodies(seed: int, batches: int, batch_reports: int, client: str) -> List[Tuple[bytes, int]]:
    """Report bodies of zipf-1.1 values, alternating streams A and B.

    Values come from the paper's zipf-1.1 dataset generator; each body
    carries a unique idempotency key ``<client>-<n>`` as the bundled
    client mints them.
    """
    from repro.data.registry import make_join_instance

    per_stream = (batches + 1) // 2 * batch_reports
    instance = make_join_instance("zipf-1.1", size=per_stream, seed=seed)
    streams = {"A": instance.values_a, "B": instance.values_b}
    bodies = []
    for index in range(batches):
        stream = "A" if index % 2 == 0 else "B"
        offset = index // 2 * batch_reports
        values = streams[stream][offset : offset + batch_reports]
        body = {
            "tenant": TENANT,
            "stream": stream,
            "values": values.tolist(),
            "idempotency_key": f"{client}-{index + 1}",
        }
        bodies.append((json.dumps(body).encode("ascii"), len(values)))
    return bodies


def post_batch(conn: Connection, body: bytes, reports: int, run: ServiceRun, tally: Tally) -> None:
    start = now_ns()
    status, ack = conn.request("POST", "/v1/report", body)
    end = now_ns()
    ok = status == 200 and ack.get("reports") == reports and "sequence" in ack
    tally.op(ok, f"ingest HTTP {status}")
    run.requests.append(Request("ingest", start, end, ok, ack.get("sequence"), reports))


def timed_get(conn: Connection, kind: str, path: str, run: ServiceRun, tally: Tally,
              digest: Optional[str] = None) -> dict:
    """One timed estimate; with ``digest``, it must come from that snapshot."""
    start = now_ns()
    status, answer = conn.request("GET", path)
    end = now_ns()
    ok = status == 200 and "estimate" in answer
    ok = ok and (digest is None or answer.get("snapshot_digest") == digest)
    tally.op(ok, f"{kind} HTTP {status} digest {answer.get('snapshot_digest')}")
    run.requests.append(Request(kind, start, end, ok))
    return answer


def latencies_ms(run: ServiceRun, kind: str) -> List[float]:
    """Latencies of the successful ``kind`` requests, in the order they were sent."""
    done = sorted((r for r in run.requests if r.kind == kind and r.ok), key=lambda r: r.start)
    return [(r.end - r.start) / 1e6 for r in done]


def set_up(make_nodes, setups: int) -> Tuple[List[Node], float]:
    """Start the system ``setups`` times; keep the last; median set-up time.

    Set-up time runs from spawning the first process until every node
    answers ``/readyz`` 200.
    """
    times = []
    nodes: List[Node] = []
    for attempt in range(setups):
        nodes = make_nodes(attempt)
        start = now_ns()
        for node in nodes:
            node.spawn()
            node.wait_listening()
        for node in nodes:
            node.wait_ready()
        times.append((now_ns() - start) / 1e9)
        if attempt < setups - 1:
            for node in nodes:
                node.procs.kill(node.proc)
    return nodes, median(times)


def recover(node: Node, verify, cycles: int, run: ServiceRun) -> None:
    """SIGKILL ``node`` and restart it on its data dir ``cycles`` times.

    Each sample runs from the respawn until ``/readyz`` answers 200 and
    ``verify(conn)`` has checked the recovered state.  The median CPU time
    the restarted process used by then is ``recovery_cpu_s``; the median
    wall time (the downtime), ``recovery_s`` in the metadata.
    """
    cpu, wall = [], []
    for _ in range(cycles):
        node.kill()
        start = now_ns()
        node.spawn()
        node.wait_listening()
        node.wait_ready()
        conn = Connection(node.port)
        try:
            verify(conn)
        finally:
            conn.close()
        wall.append((now_ns() - start) / 1e9)
        cpu.append(cpu_seconds([node.proc.pid]))
    block_cost(run, "recovery_cpu_s", cpu, 1.0, "s")
    run.wall["recovery_s"] = median(wall)


def record_wal_bytes(node: Node, run: ServiceRun) -> None:
    """``service.wal.bytes_per_report``: the node's ``wal.log`` size ÷ acked reports."""
    size = (node.data_dir / "wal.log").stat().st_size
    run.layer["service.wal.bytes_per_report"] = (size / run.reports, "B/report")


# ----------------------------------------------------------------------
# ingest-quorum
# ----------------------------------------------------------------------
def ingest_quorum(
    run_dir: Path,
    procs: Processes,
    tally: Tally,
    *,
    seed: int,
    batches: int,
    queries: int,
    blocks: int,
    setups: int,
    recoveries: int,
    traced: bool,
    tamper: bool,
) -> ServiceRun:
    """Primary + one standby in quorum mode, two writer connections.

    The run is ``blocks`` blocks.  In each, both connections send their
    share of the block's batches, and the nodes' CPU time is sampled once
    both have their acks, so no request is in flight at a sample; then
    the primary publishes what it holds and one connection sends the
    block's plain join queries against that snapshot.  Spreading the
    queries over the run, rather than into one phase after the ingest,
    lets their median see more than one stretch of the host's speed.
    """
    run = ServiceRun()
    bodies = make_bodies(seed, batches, 2048, "bench")
    # Above the run's record count: no watchdog publish mid-run.
    common = ["--ack-mode", "quorum", "--publish-threshold", str(batches + 1024)]

    def make_nodes(attempt: int) -> List[Node]:
        base = run_dir / f"cluster{attempt}"
        standby = Node(
            procs, "standby", base / "standby", ["--role", "standby", *common], traced
        )
        primary = Node(
            procs, "primary", base / "primary",
            lambda: ["--role", "primary", "--replica", standby.address, *common],
            traced,
        )
        return [standby, primary]

    nodes, setup_s = set_up(make_nodes, setups)
    standby, primary = nodes
    pids = [primary.proc.pid, standby.proc.pid]
    run.metrics["setup_s"] = (setup_s, "s")

    # Ingest: two closed-loop writer connections, block by block.
    def writer(conn: Connection, share: Sequence[Tuple[bytes, int]]) -> None:
        for body, reports in share:
            post_batch(conn, body, reports, run, tally)

    def publish(node: Node, conn: Connection) -> Optional[str]:
        status, info = conn.request("POST", "/v1/publish")
        tally.op(status == 200 and "digest" in info, f"publish {node.name} HTTP {status}")
        return info.get("digest")

    conns = [Connection(primary.port) for _ in range(2)]
    shares = [chunks(bodies[i::2], blocks) for i in range(2)]
    query_blocks = chunks(range(queries), blocks)
    ingest_costs, query_costs = [], []  # CPU seconds per acked report / per query
    ingest_ns = 0
    for block in range(blocks):
        acked, cpu, start = run.reports, cpu_seconds(pids), now_ns()
        threads = [
            threading.Thread(target=writer, args=(conn, share[block]), daemon=True)
            for conn, share in zip(conns, shares)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ingest_ns += now_ns() - start
        cpu, acked = cpu_seconds(pids) - cpu, run.reports - acked
        if acked:
            ingest_costs.append(cpu / acked)

        # Plain join queries against the snapshot just published.
        digest = publish(primary, conns[0])
        cpu = cpu_seconds([primary.proc.pid])
        for _ in query_blocks[block]:
            timed_get(conns[0], "query", JOIN_QUERY, run, tally, digest=digest)
        query_costs.append((cpu_seconds([primary.proc.pid]) - cpu) / len(query_blocks[block]))
    block_cost(run, "ingest_reports_per_cpu_s", ingest_costs, 1.0, "reports/cpu-s", invert=True)
    block_cost(run, "estimate_cpu_ms", query_costs, 1e3, "ms")
    run.wall["ingest_reports_per_s"] = run.reports / (ingest_ns / 1e9)
    run.wall["ingest_ack_p50_ms"] = median(latencies_ms(run, "ingest"))
    run.wall["query_p50_ms"] = median(latencies_ms(run, "query"))

    # Publish on both nodes: they must hold the same snapshot.
    standby_conn = Connection(standby.port)
    published = publish(primary, conns[0])
    standby_digest = publish(standby, standby_conn)
    standby_conn.close()
    for conn in conns:
        conn.close()
    tally.op(published is not None and published == standby_digest, "standby digest differs")
    record_wal_bytes(primary, run)
    run.metrics["peak_rss_mb"] = (vm_hwm_mb(primary.proc.pid), "MB")

    # Crash the primary; its boot snapshot must equal the pre-kill one.
    expected = published if not tamper else "0" * 64

    def verify(conn: Connection) -> None:
        status, info = conn.request("GET", "/v1/snapshot")
        tally.op(status == 200 and info.get("digest") == expected, "boot digest differs")

    recover(primary, verify, recoveries, run)
    for node in (primary, standby):
        node.stop()
    return run


# ----------------------------------------------------------------------
# window-mixed
# ----------------------------------------------------------------------
#: One round: an epoch of small batches, then window queries.
ROUND_BATCHES = 8
ROUND_QUERIES = 4
WINDOW_BATCH = 256


def window_mixed(
    run_dir: Path,
    procs: Processes,
    tally: Tally,
    *,
    seed: int,
    rounds: int,
    blocks: int,
    setups: int,
    recoveries: int,
    traced: bool,
    tamper: bool,
) -> ServiceRun:
    """One standalone node with an 8-epoch ring; writes and window reads.

    The rounds run in ``blocks`` blocks; the node's CPU time is sampled
    around each round's writes and each round's window queries, and
    summed per block.
    """
    run = ServiceRun()
    bodies = make_bodies(seed, rounds * ROUND_BATCHES, WINDOW_BATCH, "bench")
    # Window answers come from the live ring, so no publish is needed; the
    # watchdog's timer-driven publishes stay off, as on ingest-quorum, so
    # that a run's work does not depend on when a timer fires.
    args = [
        "--epoch-interval", str(ROUND_BATCHES), "--window-epochs", "8",
        "--publish-threshold", str(rounds * ROUND_BATCHES + 1024),
    ]

    def make_nodes(attempt: int) -> List[Node]:
        base = run_dir / f"cluster{attempt}"
        return [Node(procs, "node", base / "node", args, traced)]

    nodes, setup_s = set_up(make_nodes, setups)
    (node,) = nodes
    run.metrics["setup_s"] = (setup_s, "s")

    conn = Connection(node.port)
    pids = [node.proc.pid]
    last_answer: dict = {}
    ingest_costs, window_costs = [], []  # CPU seconds per report / per query, per block
    for block in chunks(range(rounds), blocks):
        acked, ingest_cpu, window_cpu = run.reports, 0.0, 0.0
        for index in block:
            before = cpu_seconds(pids)
            for body, reports in bodies[index * ROUND_BATCHES : (index + 1) * ROUND_BATCHES]:
                post_batch(conn, body, reports, run, tally)
            middle = cpu_seconds(pids)
            for _ in range(ROUND_QUERIES):
                last_answer = timed_get(conn, "window", WINDOW_QUERY, run, tally)
            after = cpu_seconds(pids)
            ingest_cpu += middle - before
            window_cpu += after - middle
        if run.reports > acked:
            ingest_costs.append(ingest_cpu / (run.reports - acked))
        window_costs.append(window_cpu / (len(block) * ROUND_QUERIES))
    conn.close()

    acks = latencies_ms(run, "ingest")
    windows = latencies_ms(run, "window")
    block_cost(run, "ingest_reports_per_cpu_s", ingest_costs, 1.0, "reports/cpu-s", invert=True)
    block_cost(run, "estimate_cpu_ms", window_costs, 1e3, "ms")
    busy = sum(r.end - r.start for r in run.acked()) / 1e9
    run.wall["ingest_reports_per_s"] = run.reports / busy
    run.wall["ingest_ack_p50_ms"] = median(acks)
    run.wall["window_query_p50_ms"] = median(windows)
    record_wal_bytes(node, run)
    run.metrics["peak_rss_mb"] = (vm_hwm_mb(node.proc.pid), "MB")

    # Crash; the first window answer after the restart must repeat the last one.
    expected = dict(last_answer, estimate="tampered") if tamper else last_answer

    def verify(conn: Connection) -> None:
        status, answer = conn.request("GET", WINDOW_QUERY)
        tally.op(status == 200 and answer == expected, "window answer changed across restart")

    recover(node, verify, recoveries, run)
    node.stop()
    return run
