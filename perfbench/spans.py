"""In-process span tracer and the launcher of traced system processes.

Run as a launcher, it wraps the public functions of each layer inside a
system process, then hands over to that process's normal entry point::

    python perfbench/spans.py node  <out.json> <repro.service args...>
    python perfbench/spans.py sweep <out.json> <sweep child args...>

Every wrapped call becomes one span ``(name, start_ns, end_ns, span_id,
parent_id, thread, request_id, work)`` kept in memory.  The spans are
written to ``out.json`` when the process exits (a service node exits on
SIGTERM) and, for a node about to be SIGKILLed, on SIGUSR1.  The request
id is the WAL sequence of the batch being handled — carried in the ack
and in the shipped replication frame — so one batch can be followed
from the client through the primary to the standby.

Each function is patched where its callers look it up: a function bound
into another module by ``from x import f`` is re-bound in every ``repro``
module that holds it, so for example ``find_frequent_items`` is wrapped
inside ``repro.core.plus`` and ``merge_tree`` inside
``repro.service.core``.  No file of the program changes.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, List, Optional


class Tracer:
    """Spans and counters of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counters: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: int, end: int, *, work: float = 0.0,
               rid: Optional[int] = None) -> None:
        """Add a span the benchmark's own code timed (a sweep unit)."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        self.spans.append(
            (name, start, end, next(self._ids), parent, threading.get_ident(), rid, work)
        )

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(
        self,
        fn: Callable,
        name: Any,
        *,
        work: Optional[Callable] = None,
        rid_in: Optional[Callable] = None,
        rid_out: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records one span per call.

        ``name`` is a span name or a function of the call's arguments;
        ``work(args, kwargs)`` gives the call's work count (clients,
        values); ``rid_in(args, kwargs)`` sets the request id for the
        call and its children; ``rid_out(result)`` sets it from the
        result for the remainder of the enclosing call.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            local = tracer._local
            outer_rid = getattr(local, "rid", None)
            if rid_in is not None:
                local.rid = rid_in(args, kwargs)
            stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if rid_out is not None and result is not None:
                    local.rid = rid_out(result)
                label = name(args, kwargs) if callable(name) else name
                amount = float(work(args, kwargs)) if work is not None else 0.0
                tracer.spans.append(
                    (label, start, end, span_id, parent, threading.get_ident(),
                     getattr(local, "rid", None), amount)
                )
                if rid_in is not None:
                    local.rid = outer_rid

        return traced

    # -- patching -------------------------------------------------------
    def patch_function(self, module_name: str, attr: str, name: str, **options) -> None:
        """Wrap ``module.attr`` and re-bind it in every module that imported it."""
        module = sys.modules[module_name]
        original = getattr(module, attr)
        traced = self.wrap(original, name, **options)
        for loaded in list(sys.modules.values()):
            label = getattr(loaded, "__name__", "") or ""
            if label == module_name or label.startswith("repro."):
                if getattr(loaded, attr, None) is original:
                    setattr(loaded, attr, traced)

    def patch_method(self, cls: type, attr: str, name: Any, **options) -> None:
        setattr(cls, attr, self.wrap(cls.__dict__[attr], name, **options))

    # -- output ---------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write spans and counters atomically (temp file + rename)."""
        payload = {
            "pid": os.getpid(),
            "spans": list(self.spans),
            "counters": dict(self.counters),
        }
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)


def _size(position: int, keyword: str):
    def work(args, kwargs):
        value = kwargs.get(keyword, args[position] if len(args) > position else ())
        return len(value)

    return work


def install_common(tracer: Tracer) -> None:
    """Probes of the library layers, the same in every traced process.

    A layer a process never calls simply records no spans, so every
    workload's layer shares are measured against the same probes.
    """
    import repro.api.session as session
    import repro.core.client  # noqa: F401 - loaded so its bindings can be found
    import repro.core.estimator  # noqa: F401
    import repro.core.fap  # noqa: F401
    import repro.core.plus  # noqa: F401
    import repro.hashing.pairs as pairs
    import repro.transform.hadamard  # noqa: F401

    for attr, name in (
        ("merge", "api.session.merge"),
        ("estimate", "api.session.estimate"),
        ("to_partial", "api.session.to_partial"),
    ):
        tracer.patch_method(session.JoinSession, attr, name)
    tracer.patch_method(
        session.JoinSession, "collect", "api.session.collect", work=_size(2, "values")
    )
    tracer.patch_function(
        "repro.core.client", "encode_reports_into", "core.client.encode",
        work=_size(0, "values"),
    )
    tracer.patch_function("repro.transform.hadamard", "fwht_inplace", "transform.fwht")
    tracer.patch_function("repro.core.fap", "fap_encode_reports", "core.fap.encode")
    tracer.patch_function(
        "repro.core.estimator", "find_frequent_items", "core.estimator.find_frequent_items"
    )
    for attr in ("bucket_all", "sign_all"):
        tracer.patch_method(pairs.HashPairs, attr, f"hashing.{attr}", work=_size(1, "values"))


def install_service(tracer: Tracer) -> None:
    """Probes of one ``repro.service`` node."""
    import http.client

    import repro.distributed.checkpoint as checkpoint
    import repro.distributed.merge  # noqa: F401
    import repro.service.__main__  # noqa: F401 - binds the server's imports
    import repro.service.core as core
    import repro.service.replication as replication
    import repro.service.wal as wal
    import repro.temporal.session as temporal

    install_common(tracer)

    def ack_sequence(result):
        return result.get("sequence") if isinstance(result, dict) else None

    def clear_rid(args, kwargs):
        return None

    tracer.patch_method(
        core.AggregationService, "ingest", "service.core.ingest",
        rid_in=clear_rid, rid_out=ack_sequence, work=_size(3, "values"),
    )
    tracer.patch_method(
        core.AggregationService, "estimate",
        lambda args, kwargs: (
            "service.core.estimate" if kwargs.get("window") is None
            else "service.core.window_estimate"
        ),
    )
    tracer.patch_method(core.AggregationService, "publish", "service.core.publish")
    tracer.patch_method(core.AggregationService, "start", "service.core.start")
    tracer.patch_method(
        replication.ReplicatedService, "apply_replication", "service.replication.apply",
        rid_in=lambda args, kwargs: args[1].get("sequence"),
    )
    tracer.patch_method(replication.HttpReplica, "replicate", "service.replication.ship")
    tracer.patch_method(
        wal.WriteAheadLog, "append", "service.wal.append", rid_out=lambda seq: int(seq)
    )
    tracer.patch_method(wal.WriteAheadLog, "recover", "service.wal.recover")
    tracer.patch_function("repro.service.wal", "encode_frame", "service.wal.encode_frame")
    tracer.patch_method(checkpoint.ShardCheckpoint, "flush", "distributed.checkpoint.flush")
    tracer.patch_function("repro.distributed.merge", "merge_tree", "distributed.merge.merge_tree")
    tracer.patch_method(temporal.TemporalSession, "roll", "temporal.roll")
    tracer.patch_method(temporal.TemporalSession, "collect", "temporal.collect")
    tracer.patch_method(temporal.TemporalSession, "window_entries", "temporal.window_entries")

    os.fsync = tracer.wrap(os.fsync, "storage.fsync")
    http.client.HTTPConnection.connect = tracer.wrap(
        http.client.HTTPConnection.connect, "service.replication.connect"
    )
    original_request = http.client.HTTPConnection.request

    @functools.wraps(original_request)
    def request(self, method, url, body=None, *args, **kwargs):
        if url == "/v1/replicate" and body is not None:
            tracer.count("replication.frame_bytes", len(body))
        return original_request(self, method, url, body, *args, **kwargs)

    http.client.HTTPConnection.request = request


def install_sweep(tracer: Tracer) -> None:
    """Probes of the paper-sweep process."""
    import repro.experiments.sweep  # noqa: F401

    install_common(tracer)
    tracer.patch_function("repro.experiments.sweep", "plan_grid", "experiments.sweep.plan_grid")
    tracer.patch_function(
        "repro.core.client", "encode_reports_trials_into", "core.client.encode_trials",
        work=lambda args, kwargs: len(args[0]) * (
            len(args[2]) if isinstance(args[2], (list, tuple)) else 1
        ),
    )
    tracer.patch_function(
        "repro.core.client", "encode_reports", "core.client.encode_reports",
        work=_size(0, "values"),
    )


def _run(kind: str, out: Path, argv: List[str]) -> int:
    tracer = Tracer()
    if kind == "node":
        install_service(tracer)
        signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.dump(out))
        from repro.service.__main__ import main
    else:
        install_sweep(tracer)
        from sweep_workload import child_main

        main = functools.partial(child_main, tracer=tracer)
    try:
        return main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in ("node", "sweep"):
        raise SystemExit("usage: spans.py node|sweep <out.json> <args...>")
    raise SystemExit(_run(sys.argv[1], Path(sys.argv[2]), sys.argv[3:]))
