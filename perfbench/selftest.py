"""Self-test of the benchmark: tiny runs of every workload, checked.

    python3 perfbench/selftest.py            # tiny sizes, about a minute
    python3 perfbench/selftest.py --full 20  # the real sizes (--seconds 20)

For each workload it checks that

* an untraced run prints exactly the end-to-end metrics ``BENCHMARK.json``
  declares, each with its declared unit and none of them 0, and no
  operation fails;
* a traced run prints exactly the declared per-layer metrics;
* a run with ``--tamper`` (one expected digest or answer corrupted per
  check) reports failed operations and ``correct: false``;
* two traced runs with the same seed give exactly the same count-type
  per-layer metrics (``*_calls_per_*``, ``*_per_batch``, ``*_per_frame``,
  ``*_per_report``, ``domain_hash_passes_per_plus_trial``) and relative
  errors (``core.estimator.rel_error_*``).

It exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("ingest-quorum", "window-mixed", "paper-sweep")

#: Per-layer figures that must repeat exactly for a seed: counts, bytes
#: and the relative errors (the sweep's grid seed is fixed).
EXACT = re.compile(
    r"_calls_per_|_per_batch$|_per_frame$|_per_report$|domain_hash_passes_per_|rel_error_"
)


class Checks:
    def __init__(self) -> None:
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            self.failed += 1


def run(workload: str, seed: int, seconds: str, *flags: str) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", seconds, *flags]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=400)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Self-test of the benchmark.")
    parser.add_argument("--full", metavar="SECONDS", default=None,
                        help="run at the real sizes for this many seconds instead of tiny")
    parser.add_argument("--workload", action="append", choices=WORKLOADS, default=None)
    args = parser.parse_args(argv)
    size = ["--tiny"] if args.full is None else []
    seconds = args.full or "5"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = Checks()

    for workload in args.workload or WORKLOADS:
        seed = 7
        plain = run(workload, seed, seconds, "--trace", "0", *size)
        traced = [run(workload, seed, seconds, "--trace", "1", *size) for _ in range(2)]
        tampered = run(workload, seed, seconds, "--trace", "0", "--tamper", *size)

        for label, result, kind in (("end-to-end", plain, "end_to_end"),
                                    ("per-layer", traced[0], "per_layer")):
            metrics = result["metrics"]
            checks.expect(result["correct"] and result["failed"] == 0,
                          f"{workload} {label}: no operation failed "
                          f"({result['failed']}/{result['attempted']})")
            units = {m["name"]: m["unit"] for m in declared[kind]}
            printed = {n: v["unit"] for n, v in metrics.items()}
            checks.expect(printed == units,
                          f"{workload} {label}: exactly the declared metrics and units "
                          f"{sorted(set(printed.items()) ^ set(units.items()))}")
        zero = [n for n, v in plain["metrics"].items() if not v["value"]]
        checks.expect(not zero, f"{workload}: no end-to-end metric is 0 {zero}")
        checks.expect(tampered["failed"] > 0 and not tampered["correct"],
                      f"{workload}: tampered expectations fail "
                      f"({tampered['failed']}/{tampered['attempted']})")

        pairs = [(n, [r["metrics"][n]["value"] for r in traced])
                 for n in traced[0]["metrics"] if EXACT.search(n)]
        for name, (first, second) in pairs:
            checks.expect(first == second, f"{workload}: {name} repeats exactly "
                                           f"({first!r} vs {second!r})")
    print(f"{checks.failed} check(s) failed" if checks.failed else "all checks passed")
    return 1 if checks.failed else 0


if __name__ == "__main__":
    sys.exit(main())
