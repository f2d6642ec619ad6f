"""Rule framework for the :mod:`repro.analysis` invariant linter.

The linter is a thin orchestration layer over stdlib :mod:`ast`: every
rule is a :class:`Rule` subclass registered under a stable ``RPRnnn``
error code, receives one parsed :class:`FileContext` per file, and yields
:class:`Diagnostic` records.  Nothing here imports numpy — the linter
must stay runnable in a bare-stdlib environment (CI's lint job, editor
integrations) even though the package it checks does not.

Why an in-tree linter at all: the repo's correctness rests on invariants
generic tools cannot express — bit-identical sharded merges require
pure-int64 pre-FWHT accumulators and strictly seeded RNG streams, and
the LDP guarantees require every epsilon-consuming computation to happen
where the budget ledger can see it.  Each rule turns one of those tribal-knowledge rules into a
machine-checked one (see :mod:`repro.analysis.rules` for the catalogue).

Suppressions
------------
A diagnostic is suppressed by a trailing comment on the flagged line::

    x = np.add.at(out, idx, 1)  # repro: ignore[RPR102]

``# repro: ignore`` with no bracket suppresses every code on that line;
a bracketed comma-separated list suppresses only the named codes.
Suppressions are deliberately line-scoped — file- or block-scoped escape
hatches grow silent blind spots.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type

__all__ = [
    "Diagnostic",
    "FileContext",
    "Rule",
    "RULES",
    "register_rule",
    "parse_suppressions",
    "SYNTAX_ERROR_CODE",
]

#: Pseudo-code used for files the parser rejects (not a registered rule:
#: a file that does not parse cannot be checked, which is itself a finding).
SYNTAX_ERROR_CODE = "RPR000"

_CODE_RE = re.compile(r"^RPR\d{3}$")

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<codes>[A-Za-z0-9_,\s]*)\])?"
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violation at a file/line/column."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }

    @property
    def baseline_key(self) -> str:
        """Stable key used by the baseline file (line numbers excluded,
        so unrelated edits above a baselined finding do not invalidate it)."""
        return f"{self.path}::{self.code}"


def parse_suppressions(source: str) -> Dict[int, Optional[frozenset]]:
    """Map 1-based line numbers to suppressed codes.

    ``None`` means every code is suppressed on that line (bare
    ``# repro: ignore``); otherwise the value is the frozenset of codes
    named in the bracket.  Lines without a suppression comment are absent.
    """
    table: Dict[int, Optional[frozenset]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        raw = match.group("codes")
        if raw is None:
            table[lineno] = None
        else:
            codes = frozenset(
                part.strip().upper() for part in raw.split(",") if part.strip()
            )
            # An empty bracket ("ignore[]") suppresses nothing — treat it
            # as a malformed comment rather than a blanket waiver.
            table[lineno] = codes if codes else frozenset()
    return table


class FileContext:
    """One parsed file plus the path facts rules scope themselves by."""

    def __init__(self, path: Path, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.display_path = _display_path(path)
        parts = Path(self.display_path).parts
        if "repro" in parts:
            # Everything after the *last* ``repro`` directory component:
            # the logical location inside the package, independent of
            # where the checkout or the fixture tree lives.
            idx = len(parts) - 1 - tuple(reversed(parts)).index("repro")
            self.package_parts: Tuple[str, ...] = parts[idx + 1 :]
            self.in_repro_package = True
        else:
            self.package_parts = parts
            self.in_repro_package = False
        self.suppressions = parse_suppressions(source)

    # -- path predicates ------------------------------------------------
    def in_package(self, *names: str) -> bool:
        """Whether the file sits under any of the named repro subpackages."""
        if not self.in_repro_package or not self.package_parts:
            return False
        return self.package_parts[0] in names

    def is_module(self, filename: str) -> bool:
        """Whether this is the top-level repro module ``filename``."""
        return self.in_repro_package and self.package_parts == (filename,)

    # -- helpers for rules ----------------------------------------------
    def segment(self, node: ast.AST) -> str:
        """Source text of ``node`` (empty string when unavailable)."""
        return ast.get_source_segment(self.source, node) or ""

    def diagnostic(self, node: ast.AST, code: str, message: str) -> Diagnostic:
        return Diagnostic(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        )

    def is_suppressed(self, diag: Diagnostic) -> bool:
        codes = self.suppressions.get(diag.line, frozenset())
        if codes is None:  # bare "# repro: ignore"
            return True
        return diag.code in codes


def _display_path(path: Path) -> str:
    """Posix path relative to the working directory when possible."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


class Rule:
    """Base class: one invariant, one stable error code.

    Subclasses set ``code`` / ``name`` / ``rationale`` and implement
    :meth:`check`.  ``rationale`` is user-facing — it is what
    ``--list-rules`` and the README catalogue print, so it should say
    *why* the invariant exists, not restate the pattern.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def run(self, ctx: FileContext) -> Iterable[Diagnostic]:
        return self.check(ctx)


#: Registry of rule instances keyed by error code, filled by
#: :func:`register_rule` as :mod:`repro.analysis.rules` is imported.
RULES: Dict[str, Rule] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: validate the code and add an instance to RULES."""
    if not _CODE_RE.match(cls.code):
        raise ValueError(f"rule {cls.__name__} has invalid code {cls.code!r}")
    if cls.code == SYNTAX_ERROR_CODE:
        raise ValueError(f"{SYNTAX_ERROR_CODE} is reserved for parse failures")
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls()
    return cls


# -- shared AST utilities ----------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def target_names(target: ast.AST) -> Iterator[str]:
    """Bound identifier names of an assignment target (tuples unpacked,
    attributes reported by their terminal attribute name)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Attribute):
        yield target.attr
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from target_names(element)
    elif isinstance(target, ast.Starred):
        yield from target_names(target.value)
