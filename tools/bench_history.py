"""Keep every benchmark run: append it to ``BENCH_history.jsonl``, check it, compare commits.

Usage (from the root of a checkout)::

    python3 tools/bench_history.py run --workload ingest-quorum --seed 1 --seconds 20
    python3 tools/bench_history.py check
    python3 tools/bench_history.py diff BASE HEAD

``run`` runs ``perfbench/run.py`` with the arguments after ``run`` and
appends one line to the history: the commit, whether tracked files
differed from it (``dirty``), perfbench's ``# meta`` object and its
result object.  It exits non-zero unless the run is correct, prints
every metric ``BENCHMARK.json`` declares and clears its workload's
floor (:data:`FLOORS`).  ``check`` applies the same checks to every line
kept.  ``diff`` takes, for each workload and run length both commits
ran, the median of each end-to-end metric over that commit's clean lines
and flags a move in the worse direction larger than the metric's bound.
``--history PATH`` (before the subcommand) reads and appends another file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "BENCH_history.jsonl"
BENCHMARK = ROOT / "BENCHMARK.json"
PERFBENCH = ROOT / "perfbench" / "run.py"

#: Per workload, a floor on a wall-clock figure a client saw (the ``wall``
#: object of perfbench's meta line): (figure, better, threshold).
FLOORS = {
    "ingest-quorum": ("ingest_reports_per_s", "higher", 50_000.0),
    "window-mixed": ("window_query_p50_ms", "lower", 5.0),
}


def git_state(root: Path = ROOT):
    """``(commit, dirty)`` of the checkout; the history file never counts as a change."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              check=True).stdout.strip()

    changed = git("status", "--porcelain", "--untracked-files=no", "--", ".",
                  ":(exclude)BENCH_history.jsonl")
    return git("rev-parse", "HEAD"), bool(changed)


def problems(entry) -> list:
    """Why one history line fails its checks; empty when it passes."""
    if not isinstance(entry, dict) or not all(
        isinstance(entry.get(key), kind)
        for key, kind in (("commit", str), ("dirty", bool), ("meta", dict), ("result", dict))
    ):
        return ["not an object with commit, dirty, meta and result"]
    meta, result = entry["meta"], entry["result"]
    found = [] if result.get("correct") is True else ["perfbench reported correct: false"]
    metrics = result.get("metrics") if isinstance(result.get("metrics"), dict) else {}
    kind = "per_layer" if meta.get("trace") else "end_to_end"
    for spec in json.loads(BENCHMARK.read_text())[kind]:
        value = metrics.get(spec["name"], {})
        if not isinstance(value, dict) or not isinstance(value.get("value"), (int, float)):
            found.append(f"metric {spec['name']} is missing")
    if meta.get("workload") in FLOORS:
        figure, better, threshold = FLOORS[meta["workload"]]
        value = meta.get("wall", {}).get(figure) if isinstance(meta.get("wall"), dict) else None
        if not isinstance(value, (int, float)):
            found.append(f"wall.{figure} is missing")
        elif value < threshold if better == "higher" else value > threshold:
            bound = ">=" if better == "higher" else "<="
            found.append(f"wall.{figure} = {value:,.2f}, floor {bound} {threshold:,.2f}")
    return found


def read_history(path: Path) -> list:
    """``(line number, entry or None if the line is not JSON)`` for each line."""
    rows = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        try:
            rows.append((number, json.loads(line)))
        except json.JSONDecodeError:
            rows.append((number, None))
    return rows


def cmd_run(history: Path, perfbench_args: list) -> int:
    done = subprocess.run([sys.executable, str(PERFBENCH), *perfbench_args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        print(f"[fail] perfbench exited with code {done.returncode}; nothing appended")
        return max(done.returncode, 1)
    lines = done.stdout.strip().splitlines()
    try:
        if not lines[-2].startswith("# meta "):
            raise ValueError("no '# meta' line before the result line")
        meta, result = json.loads(lines[-2][len("# meta "):]), json.loads(lines[-1])
    except (IndexError, ValueError) as error:
        print(f"[fail] perfbench printed no meta and result line ({error}); nothing appended")
        return 1
    commit, dirty = git_state()
    entry = {"commit": commit, "dirty": dirty, "meta": meta, "result": result}
    with history.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    shown = ", ".join(f"{name} {m['value']:.4g} {m['unit']}"
                      for name, m in sorted(result.get("metrics", {}).items()))
    print(f"[appended] {meta.get('workload')} at {commit[:12]}{' (dirty)' if dirty else ''}: "
          f"{shown}; wall {json.dumps(meta.get('wall', {}))}")
    found = problems(entry)
    for problem in found:
        print(f"[fail] {problem}")
    return 1 if found else 0


def cmd_check(history: Path) -> int:
    rows = read_history(history) if history.exists() else []
    failed = 0
    if not rows:
        print(f"[fail] {history} holds no runs")
        failed = 1
    for number, entry in rows:
        for problem in ["not a JSON line"] if entry is None else problems(entry):
            print(f"[fail] {history.name}:{number}: {problem}")
            failed += 1
    if not failed:
        print(f"[ok] {history.name}: {len(rows)} run(s), each correct and at its floor")
    return 1 if failed else 0


def medians(rows: list, ref: str) -> dict:
    """``{(workload, seconds): {metric: median}}`` over the clean, untraced lines of ``ref``.

    A dirty line measured code that no commit holds, so it is left out.
    """
    resolved = subprocess.run(["git", "rev-parse", "--verify", "--quiet", ref + "^{commit}"],
                              cwd=ROOT, capture_output=True, text=True).stdout.strip() or ref
    values = {}
    for _, entry in rows:
        if (entry is None or problems(entry) or not entry["commit"].startswith(resolved)
                or entry["dirty"] or entry["meta"].get("trace")):
            continue
        meta = entry["meta"]
        group = values.setdefault((meta.get("workload"), meta.get("seconds")), {})
        for name, metric in entry["result"]["metrics"].items():
            group.setdefault(name, []).append(metric["value"])
    return {group: {name: statistics.median(v) for name, v in metrics.items()}
            for group, metrics in values.items()}


def cmd_diff(history: Path, base_ref: str, head_ref: str) -> int:
    rows = read_history(history)
    base, head = medians(rows, base_ref), medians(rows, head_ref)
    common = sorted(set(base) & set(head), key=str)
    if not common:
        print(f"[fail] no workload and run length that both {base_ref} and {head_ref} ran")
        return 1
    flagged = 0
    for workload, seconds in common:
        for spec in json.loads(BENCHMARK.read_text())["end_to_end"]:
            old = base[workload, seconds][spec["name"]]
            new = head[workload, seconds][spec["name"]]
            worse = (new - old) / old if spec["better"] == "lower" else (old - new) / old
            flag = worse > spec["bound"]
            flagged += flag
            print(f"[{'worse' if flag else 'ok'}] {workload} --seconds {seconds} {spec['name']}: "
                  f"{old:.4g} -> {new:.4g} {spec['unit']} ({worse:+.1%} worse, "
                  f"bound {spec['bound']:.0%})")
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history", type=Path, default=HISTORY, help="the history file")
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("run", help="run perfbench with the remaining arguments and append")
    commands.add_parser("check", help="check every line of the history")
    diff = commands.add_parser("diff", help="compare two commits' medians against the bounds")
    diff.add_argument("base")
    diff.add_argument("head")
    args, rest = parser.parse_known_args(argv)
    if rest and args.command != "run":
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    if args.command == "run":
        return cmd_run(args.history, rest)
    if args.command == "check":
        return cmd_check(args.history)
    return cmd_diff(args.history, args.base, args.head)


if __name__ == "__main__":
    sys.exit(main())
