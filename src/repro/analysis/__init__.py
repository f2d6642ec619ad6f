"""repro.analysis — AST-based invariant linter for the repro codebase.

A self-contained static-analysis pass (stdlib :mod:`ast` only, no
third-party dependencies) that machine-checks the correctness contracts
the rest of the package relies on but generic linters cannot express:

* **RPR101** — all randomness flows through :mod:`repro.rng`; no global
  or unseeded RNG construction anywhere else.
* **RPR102** — merge-critical accumulators stay pure int64 with
  scatter-adds routed through ``accumulate.bincount_accumulate`` over
  int64 flat indices (``np.add.at`` is banned outside
  ``accumulate.py``).
* **RPR104** — ``exp(epsilon)`` is computed only inside ``mechanisms/``
  and ``privacy/`` where the budget ledger accounts for it.
* **RPR105** — hot/experiment paths avoid set-iteration order,
  ``dict.popitem`` and wall-clock seeds.

Run it with ``python -m repro.analysis`` (or the ``repro-lint`` console
script, or ``repro-experiments lint``); see :mod:`repro.analysis.runner`
for flags and :mod:`repro.analysis.rules` for the catalogue.  False
positives are waived per line with ``# repro: ignore[RPRnnn]``.
"""

from .base import (
    RULES,
    SYNTAX_ERROR_CODE,
    Diagnostic,
    FileContext,
    Rule,
    register_rule,
)
from . import rules  # noqa: F401 - registers the built-in rules
from .baseline import apply_baseline, load_baseline, save_baseline
from .runner import LintResult, iter_python_files, lint_file, lint_paths, main

__all__ = [
    "Diagnostic",
    "FileContext",
    "Rule",
    "RULES",
    "SYNTAX_ERROR_CODE",
    "register_rule",
    "apply_baseline",
    "load_baseline",
    "save_baseline",
    "LintResult",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "main",
]
