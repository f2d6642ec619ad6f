"""Fault-point overhead gate: unarmed hooks must be (nearly) free.

The reliability layer threads :func:`repro.reliability.faults.fault_point`
hooks through the ingest, collect, checkpoint and sweep paths.  With no
plan armed every hook is a single module-global ``None`` check, so the
production hot path must not pay for the instrumentation.  This script
times the fused n-client ingest — one ``JoinSession.collect`` of n
uniform values from ``[0, 2**20)`` at the paper's sketch shape (k = 18,
m = 1024, epsilon = 4), each run on a fresh session — twice:

* **hooked** — the code as shipped, hooks live, no plan armed;
* **stubbed** — the importing modules' ``fault_point`` names rebound to a
  literal no-op, i.e. the pre-reliability hot path.

Each leg runs once untimed as a warm-up; then the legs alternate for
``--repeats`` rounds (default 15) and each keeps its fastest
``time.perf_counter`` wall time, so a slow outlier on either side is
ignored.  The run fails if the hooked leg is more than
``--max-overhead`` (default 2%) slower than the stubbed leg.

Usage::

    PYTHONPATH=src python benchmarks/perf/check_fault_overhead.py          # n = 1M
    PYTHONPATH=src python benchmarks/perf/check_fault_overhead.py --quick  # n = 100k
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

import repro.api.session as session_module
import repro.distributed.collectors as collectors_module
from repro.api import JoinSession
from repro.core import SketchParams
from repro.reliability.faults import active_plan, disarm

FULL_N = 1_000_000
QUICK_N = 100_000

#: The paper's default sketch shape.
BENCH_K = 18
BENCH_M = 1024
BENCH_EPSILON = 4.0
BENCH_SEED = 20240101


def _timed(func) -> float:
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def _best_of_pair(hooked_fn, stubbed_fn, repeats: int) -> tuple:
    """Best wall-clock seconds of each leg, measured interleaved.

    Alternating the legs keeps slow drift (thermal, allocator growth)
    from landing entirely on one side — at sub-100ms run times that
    drift alone can exceed the 2% budget.
    """
    hooked_fn()  # untimed warmups
    stubbed_fn()
    hooked = stubbed = float("inf")
    for _ in range(repeats):
        hooked = min(hooked, _timed(hooked_fn))
        stubbed = min(stubbed, _timed(stubbed_fn))
    return hooked, stubbed


def _ingest(values: np.ndarray, params: SketchParams) -> None:
    session = JoinSession(params, seed=BENCH_SEED)
    session.collect("A", values)


class _stubbed_hooks:
    """Rebind every importing module's ``fault_point`` to a no-op.

    The hook modules import the function by name, so patching the
    defining module would not reach the call sites.
    """

    _TARGETS = (session_module, collectors_module)

    def __enter__(self):
        self._saved = [(mod, mod.fault_point) for mod in self._TARGETS]
        for mod in self._TARGETS:
            mod.fault_point = lambda name, **context: None
        return self

    def __exit__(self, *exc):
        for mod, original in self._saved:
            mod.fault_point = original
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=FULL_N)
    parser.add_argument(
        "--quick", action="store_true", help=f"use n = {QUICK_N} instead of 1M"
    )
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.02,
        help="maximum tolerated fractional slowdown of the hooked path",
    )
    args = parser.parse_args(argv)
    n = QUICK_N if args.quick else args.n

    disarm()
    assert active_plan() is None, "a fault plan is armed; the gate measures unarmed hooks"
    params = SketchParams(BENCH_K, BENCH_M, BENCH_EPSILON)
    values = np.random.default_rng(BENCH_SEED).integers(0, 1 << 20, size=n)

    def stubbed_ingest():
        with _stubbed_hooks():
            _ingest(values, params)

    hooked, stubbed = _best_of_pair(
        lambda: _ingest(values, params), stubbed_ingest, args.repeats
    )

    overhead = hooked / stubbed - 1.0 if stubbed > 0 else 0.0
    rate = n / hooked if hooked > 0 else float("inf")
    print(
        f"fused ingest n={n}: hooked {hooked:.4f}s ({rate:,.0f} clients/s), "
        f"stubbed {stubbed:.4f}s, overhead {overhead:+.2%} "
        f"(limit {args.max_overhead:.0%})"
    )
    if overhead > args.max_overhead:
        print(
            "FAIL: unarmed fault-point hooks exceed the overhead budget",
            file=sys.stderr,
        )
        return 1
    print("OK: unarmed fault-point hooks are within the overhead budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
