"""Per-layer metrics from the spans of a traced run.

Every workload prints the same per-layer metrics, because the result
line must hold each metric ``BENCHMARK.json`` declares.  They are of
three kinds:

* ``<layer>.self_share`` — the layer's share of all traced span time:
  the self time of its spans over every traced process of the run,
  divided by the self time of every layer's spans.  A layer the
  workload does not run reads 0.
* exact counts (``*_per_<unit>``, bytes, relative errors) — they repeat
  exactly for a seed; a count whose layer the workload does not run
  reads 0.
* ``core.client.encode_clients_per_s``, ``transform.fwht_ms``,
  ``trace.unattributed_share`` and ``trace.overhead.<metric>`` — every
  workload runs these layers, so they are never 0.

Node spans are read from the files the tracer wrote (``spans.py``);
client-side requests come from the benchmark's own timings.  Self time
is a span's duration minus the part of it that its child spans cover;
time a span spends waiting on another process counts as its own.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from harness import median

Metric = Tuple[float, str]

#: Layers whose time shares are reported, by span-name prefix.
LAYERS = (
    "service.core",
    "service.wal",
    "service.replication",
    "storage",
    "api.session",
    "core.client",
    "core.estimator",
    "core.fap",
    "hashing",
    "distributed.checkpoint",
    "distributed.merge",
    "temporal",
    "transform",
    "experiments.sweep",
)


@dataclass
class Span:
    name: str
    start: int
    end: int
    span_id: int
    parent: int
    thread: int
    rid: Optional[int]
    work: float

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


@dataclass
class Process:
    """The spans of one traced process."""

    role: str  #: primary | standby | node | sweep
    generation: int  #: 0 for the first process of a role, +1 per restart
    spans: List[Span]
    counters: Dict[str, float]
    by_id: Dict[int, Span] = field(default_factory=dict)
    children: Dict[int, List[Span]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.by_id = {span.span_id: span for span in self.spans}
        self.children = defaultdict(list)
        for span in self.spans:
            self.children[span.parent].append(span)

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def ancestor_names(self, span: Span) -> List[str]:
        names = []
        while span.parent:
            span = self.by_id[span.parent]
            names.append(span.name)
        return names

    def under(self, name: str, roots: Sequence[str]) -> List[Span]:
        """Spans called ``name`` inside a span named one of ``roots``."""
        return [s for s in self.named(name) if set(self.ancestor_names(s)) & set(roots)]

    def self_ns(self, span: Span) -> int:
        children = [(c.start, c.end) for c in self.children[span.span_id]]
        return span.end - span.start - covered(children, span.start, span.end)


def load_spans(paths: Iterable[Path]) -> List[Process]:
    """Read span files named ``<role>.spans-<generation>.json``."""
    processes = []
    for path in paths:
        payload = json.loads(path.read_text())
        role, generation = re.match(r"(\w+)\.spans-(\d+)\.json$", path.name).groups()
        generation = int(generation)
        spans = [Span(*row) for row in payload["spans"]]
        processes.append(Process(role, generation, spans, payload["counters"]))
    return processes


def covered(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cursor = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def merge_intervals(intervals: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    merged: List[List[int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when the layer was not exercised."""
    return numerator / denominator if denominator else 0.0


def layer_of(name: str) -> Optional[str]:
    return next((layer for layer in LAYERS if name.startswith(layer + ".")), None)


# ----------------------------------------------------------------------
# Every workload
# ----------------------------------------------------------------------
def common_layers(processes: List[Process]) -> Dict[str, Metric]:
    """Layer time shares, encode rate and FWHT time, over every traced process."""
    self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
    encodes, fwhts = [], []
    for process in processes:
        for span in process.spans:
            layer = layer_of(span.name)
            if layer is not None:
                self_ns[layer] += process.self_ns(span)
            parent = process.by_id.get(span.parent)
            if span.name.startswith("core.client.encode") and not (
                parent and parent.name.startswith("core.client.encode")
            ):
                encodes.append(span)
            if span.name == "transform.fwht":
                fwhts.append(span)
    total = sum(self_ns.values())
    m: Dict[str, Metric] = {
        f"{layer}.self_share": (ratio(ns, total), "ratio") for layer, ns in self_ns.items()
    }
    encode_s = sum(s.end - s.start for s in encodes) / 1e9
    m["core.client.encode_clients_per_s"] = (sum(s.work for s in encodes) / encode_s, "clients/s")
    m["transform.fwht_ms"] = (median([s.ms for s in fwhts]), "ms")
    return m


# ----------------------------------------------------------------------
# Service workloads
# ----------------------------------------------------------------------
def service_layers(workload: str, material: dict) -> Dict[str, Metric]:
    run = material["run"]
    processes: List[Process] = material["processes"]
    first_role = "primary" if workload == "ingest-quorum" else "node"
    primary = next(p for p in processes if p.role == first_role and p.generation == 0)
    standbys = [p for p in processes if p.role == "standby"]
    writers = [primary, *standbys]  # every node on an ack's path
    batches, reports = run.batches, run.reports
    ingest_roots = ("service.core.ingest", "service.replication.apply")
    m: Dict[str, Metric] = {}

    frames = [s for p in writers for s in p.named("service.wal.encode_frame")]
    m["service.wal.encode_frame_calls_per_record"] = (ratio(len(frames), batches), "calls/record")
    fsyncs = [s for p in writers for s in p.under("storage.fsync", ingest_roots)]
    m["storage.fsyncs_per_batch"] = (ratio(len(fsyncs), batches), "fsyncs/batch")
    flushes = [s for p in writers for s in p.under("distributed.checkpoint.flush", ingest_roots)]
    m["distributed.checkpoint.flushes_per_batch"] = (ratio(len(flushes), batches), "flushes/batch")

    ships = primary.named("service.replication.ship")
    connects = primary.named("service.replication.connect")
    m["service.replication.connects_per_frame"] = (
        ratio(len(connects), len(ships)), "connects/frame"
    )
    m["service.replication.frame_bytes_per_report"] = (
        ratio(primary.counters.get("replication.frame_bytes", 0.0), reports), "B/report"
    )

    windows = primary.named("service.core.window_estimate")
    in_windows = primary.under("transform.fwht", ("service.core.window_estimate",))
    m["transform.fwht_calls_per_window_query"] = (
        ratio(len(in_windows), len(windows)), "calls/query"
    )

    # Client time that no server span covers (HTTP, JSON, queueing, client).
    busy = [(s.start, s.end) for s in primary.spans
            if s.parent == 0 and s.name.startswith("service.core.")]
    client = merge_intervals(
        (r.start, r.end) for r in run.requests if r.kind in ("ingest", "query", "window")
    )
    client_ns = sum(end - start for start, end in client)
    inside = sum(covered(busy, start, end) for start, end in client)
    m["trace.unattributed_share"] = (ratio(client_ns - inside, client_ns), "ratio")
    return m


# ----------------------------------------------------------------------
# paper-sweep
# ----------------------------------------------------------------------
def sweep_layers(material: dict) -> Dict[str, Metric]:
    processes: List[Process] = material["processes"]
    record = material["record"]
    final = max(processes, key=lambda p: p.generation)
    m: Dict[str, Metric] = {}

    plus_units = final.named("sweep.unit.ldpjs_plus")
    hashed = sum(
        s.work for s in final.spans
        if s.name in ("hashing.bucket_all", "hashing.sign_all")
        and any(u.start <= s.start and s.end <= u.end for u in plus_units)
    )
    plus_trials = sum(u.work for u in plus_units)
    m["hashing.domain_hash_passes_per_plus_trial"] = (
        ratio(hashed / 2, record["domain"] * plus_trials), "passes/trial"
    )

    units = [(s.start, s.end) for s in final.spans if s.name.startswith("sweep.unit.")]
    layer = [(s.start, s.end) for s in final.spans
             if not s.name.startswith("sweep.unit.") and s.parent == 0]
    unit_ns = sum(end - start for start, end in units)
    inside = sum(covered(layer, start, end) for start, end in units)
    m["trace.unattributed_share"] = (ratio(unit_ns - inside, unit_ns), "ratio")
    return m


#: Counts each workload reads as 0 when it does not run the layer.
ZERO_WHEN_ABSENT = {
    "service.wal.encode_frame_calls_per_record": "calls/record",
    "service.wal.bytes_per_report": "B/report",
    "storage.fsyncs_per_batch": "fsyncs/batch",
    "distributed.checkpoint.flushes_per_batch": "flushes/batch",
    "service.replication.connects_per_frame": "connects/frame",
    "service.replication.frame_bytes_per_report": "B/report",
    "transform.fwht_calls_per_window_query": "calls/query",
    "hashing.domain_hash_passes_per_plus_trial": "passes/trial",
    "core.estimator.rel_error_ldpjs": "ratio",
    "core.estimator.rel_error_ldpjs_plus": "ratio",
}


def per_layer(workload: str, untraced: Dict[str, Metric], untraced_material: dict,
              traced: Dict[str, Metric], material: dict) -> Dict[str, Metric]:
    """Per-layer metrics of the traced pass, plus traced/untraced overheads.

    The exact figures the untraced pass measured (WAL bytes, relative
    errors) come from that pass.
    """
    metrics = {name: (0.0, unit) for name, unit in ZERO_WHEN_ABSENT.items()}
    metrics.update(untraced_material["layer"])
    metrics.update(common_layers(material["processes"]))
    if workload == "paper-sweep":
        metrics.update(sweep_layers(material))
    else:
        metrics.update(service_layers(workload, material))
    for name, (value, _) in untraced.items():
        metrics[f"trace.overhead.{name}"] = (traced[name][0] / value, "ratio")
    return metrics
