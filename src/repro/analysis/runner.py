"""File discovery, rule execution, and the ``repro-lint`` entry point.

The runner walks the given paths (default: the conventional repo layout
— ``src``, ``tests``, ``benchmarks``, ``examples`` — whichever exist
under the working directory), parses every ``*.py`` file once, runs the
full rule registry over each parse tree, applies line suppressions and
the optional baseline, and renders text or JSON.

Exit codes: 0 — clean (after suppressions and baseline); 1 — at least
one fresh diagnostic, or a file that does not parse; 2 — usage error.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, TextIO

from .base import RULES, SYNTAX_ERROR_CODE, Diagnostic, FileContext
from . import rules as _rules  # noqa: F401 - imported to populate RULES

__all__ = ["LintResult", "iter_python_files", "lint_file", "lint_paths", "main"]

#: Directory names never descended into.
_SKIP_DIRS = {
    ".git",
    "__pycache__",
    ".hypothesis",
    ".pytest_cache",
    ".benchmarks",
    ".mypy_cache",
    ".ruff_cache",
    "build",
    "dist",
    ".eggs",
    "node_modules",
}

#: Default lint targets, filtered to the ones that exist.
_DEFAULT_TARGETS = ("src", "tests", "benchmarks", "examples")


@dataclass
class LintResult:
    """Outcome of one lint run (before baseline application)."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    suppressed: List[Diagnostic] = field(default_factory=list)
    files_checked: int = 0

    def extend(self, other: "LintResult") -> None:
        self.diagnostics.extend(other.diagnostics)
        self.suppressed.extend(other.suppressed)
        self.files_checked += other.files_checked


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield every ``*.py`` file under ``paths``, sorted, hidden and
    cache directories skipped."""
    seen = set()
    for path in paths:
        if path.is_file():
            if path.suffix == ".py" and path not in seen:
                seen.add(path)
                yield path
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in sorted(path.rglob("*.py")):
            parts = candidate.relative_to(path).parts
            if any(p in _SKIP_DIRS or p.startswith(".") for p in parts[:-1]):
                continue
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def lint_file(path: Path) -> LintResult:
    """Run every registered rule over one file."""
    result = LintResult(files_checked=1)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        result.diagnostics.append(
            Diagnostic(
                path=_display(path),
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code=SYNTAX_ERROR_CODE,
                message=f"file does not parse: {exc.msg}",
            )
        )
        return result
    ctx = FileContext(path, source, tree)
    collected: List[Diagnostic] = []
    for code in sorted(RULES):
        collected.extend(RULES[code].run(ctx))
    collected.sort(key=lambda d: (d.line, d.col, d.code))
    for diag in collected:
        (result.suppressed if ctx.is_suppressed(diag) else result.diagnostics).append(
            diag
        )
    return result


def _display(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(paths: Sequence[Path]) -> LintResult:
    """Lint every python file under ``paths``."""
    result = LintResult()
    for path in iter_python_files(paths):
        result.extend(lint_file(path))
    result.diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.code))
    return result


def _default_paths() -> List[Path]:
    existing = [Path(name) for name in _DEFAULT_TARGETS if Path(name).is_dir()]
    return existing or [Path(".")]


def _render_text(
    fresh: List[Diagnostic],
    baselined: List[Diagnostic],
    result: LintResult,
    stream: TextIO,
) -> None:
    for diag in fresh:
        print(diag.format_text(), file=stream)
    summary = (
        f"{result.files_checked} file(s) checked: "
        f"{len(fresh)} diagnostic(s), {len(result.suppressed)} suppressed, "
        f"{len(baselined)} baselined"
    )
    print(summary, file=stream)


def _render_json(
    fresh: List[Diagnostic],
    baselined: List[Diagnostic],
    result: LintResult,
    stream: TextIO,
) -> None:
    payload = {
        "files_checked": result.files_checked,
        "diagnostics": [d.to_dict() for d in fresh],
        "suppressed": len(result.suppressed),
        "baselined": [d.to_dict() for d in baselined],
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant linter for the repro codebase: seeded-RNG "
            "discipline (RPR101), merge-safe accumulators (RPR102), "
            "privacy-budget accounting (RPR104) and hot-path determinism "
            "(RPR105)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src tests benchmarks "
        "examples, whichever exist)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="tolerate diagnostics recorded in this baseline file",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline to exactly cover the current diagnostics "
        "and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.analysis`` / ``repro-lint``."""
    from .baseline import apply_baseline, load_baseline, save_baseline

    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(RULES):
            rule = RULES[code]
            print(f"{code}  {rule.name}")
            print(f"        {rule.rationale}")
        return 0

    if args.update_baseline and args.baseline is None:
        parser.error("--update-baseline requires --baseline")

    paths = list(args.paths) or _default_paths()
    try:
        result = lint_paths(paths)
    except FileNotFoundError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        save_baseline(args.baseline, result.diagnostics)
        print(
            f"wrote {args.baseline} covering {len(result.diagnostics)} "
            f"diagnostic(s)"
        )
        return 0

    if args.baseline is not None and args.baseline.exists():
        baseline = load_baseline(args.baseline)
        fresh, baselined = apply_baseline(result.diagnostics, baseline)
    else:
        fresh, baselined = result.diagnostics, []

    render = _render_json if args.format == "json" else _render_text
    render(fresh, baselined, result, sys.stdout)
    return 1 if fresh else 0
