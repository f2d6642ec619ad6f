"""The RPR rule catalogue — the repo's invariants, machine-checked.

Each rule encodes one correctness contract the test suites can only
probe, never enforce:

=======  ==============================================================
RPR101   All randomness flows through :mod:`repro.rng` — no global or
         unseeded RNG construction anywhere else.
RPR102   Merge safety: pre-FWHT accumulators stay pure int64 and all
         scatter-adds route through ``accumulate.bincount_accumulate``.
RPR104   Privacy accounting: ``exp(epsilon)`` is computed only inside
         ``mechanisms/`` / ``privacy/`` where the budget ledger sees it.
RPR105   Determinism smells in hot/experiment paths: unordered set
         iteration, ``dict.popitem``, wall-clock-derived seeds.
RPR106   Async service paths stay non-blocking: no ``time.sleep``, sync
         file I/O, or blocking HTTP clients inside ``service/`` async
         functions, and no wall-clock-seeded logic anywhere in
         ``service/``.
RPR107   Ledger charge rows are written only by ``privacy/budget.py``:
         no direct ``.charges.append`` / ``.extend`` / ``+=`` mutation
         elsewhere — absorbing foreign charges must go through
         ``BudgetLedger.absorb`` (collision-renaming).
=======  ==============================================================

The rules are deliberately heuristic (static analysis of a dynamic
language always is); false positives are waived line-by-line with
``# repro: ignore[RPRnnn]`` so every waiver is visible in the diff that
introduces it.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from .base import (
    Diagnostic,
    FileContext,
    Rule,
    dotted_name,
    register_rule,
    target_names,
)

__all__ = [
    "UnseededRandomnessRule",
    "MergeUnsafeAccumulatorRule",
    "PrivacyBudgetBypassRule",
    "NondeterminismSmellRule",
    "ServiceBlockingCallRule",
    "LedgerChargesMutationRule",
]

# Accumulator naming convention on merge-critical paths (core/,
# distributed/, transform/): ``acc``, ``accum``, ``accumulator``,
# ``raw``, and underscore-joined variants (``_raw``, ``raw_a``).
_ACC_NAME_RE = re.compile(r"(?:^|_)(?:acc(?:um(?:ulator)?)?|raw)(?:_|$|\d)")

# Epsilon-ish identifiers (``eps``, ``epsilon``, ``self.epsilon``, ...)
# — guarded so ``steps`` / ``timesteps`` do not match.
_EPSILON_RE = re.compile(r"(?<![A-Za-z0-9])(?:eps|epsilon)s?(?![a-z])", re.IGNORECASE)

# Seed/RNG-ish binding names for the wall-clock-seed smell.
_SEED_NAME_RE = re.compile(r"(?:^|_)(?:seed|rng)s?(?:_|$)")

#: Legacy numpy global-state RNG entry points (module-level draws share
#: one hidden global stream — poison for reproducibility).
_NP_LEGACY_RANDOM = {
    "seed",
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "ranf",
    "sample",
    "bytes",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "standard_normal",
    "binomial",
    "poisson",
    "exponential",
    "laplace",
    "geometric",
    "beta",
    "gamma",
    "multinomial",
    "get_state",
    "set_state",
    "RandomState",
}

_FLOAT_DTYPE_NAMES = {"float", "float16", "float32", "float64", "float128", "double"}


def _is_float_dtype_expr(node: ast.AST) -> bool:
    """Whether ``node`` denotes a float dtype (``float``, ``np.float64``,
    ``"float32"``, ``np.dtype("float64")``)."""
    if isinstance(node, ast.Name):
        return node.id in _FLOAT_DTYPE_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _FLOAT_DTYPE_NAMES
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.startswith("float") or node.value in {"f4", "f8", "d"}
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] == "dtype" and node.args:
            return _is_float_dtype_expr(node.args[0])
    return False


def _is_int32_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = dotted_name(node)
        return name is not None and name.split(".")[-1] in {"int32", "uint32"}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in {"int32", "uint32", "i4", "u4"}
    return False


def _float_cast_in(node: ast.AST) -> Optional[ast.Call]:
    """First ``.astype(<float dtype>)`` call inside ``node``, if any."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "astype"
        ):
            dtype_args = list(sub.args) + [
                kw.value for kw in sub.keywords if kw.arg == "dtype"
            ]
            if any(_is_float_dtype_expr(a) for a in dtype_args):
                return sub
    return None


def _contains_true_division(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div)
        for sub in ast.walk(node)
    )


@register_rule
class UnseededRandomnessRule(Rule):
    code = "RPR101"
    name = "unseeded-or-global-randomness"
    rationale = (
        "Every stochastic component must draw from a generator provided by "
        "repro.rng (ensure_rng/spawn); global or unseeded RNG state breaks "
        "bit-identical reproduction and the sharded-merge property suite."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.is_module("rng.py"):
            return  # the one sanctioned home of default_rng construction
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield ctx.diagnostic(
                            node,
                            self.code,
                            "stdlib 'random' uses hidden global state; draw "
                            "from a numpy Generator via repro.rng.ensure_rng",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and (node.module or "").split(".")[0] == "random":
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        "stdlib 'random' uses hidden global state; draw "
                        "from a numpy Generator via repro.rng.ensure_rng",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Diagnostic]:
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        if len(parts) >= 3 and parts[-3] in {"np", "numpy"} and parts[-2] == "random":
            if parts[-1] in _NP_LEGACY_RANDOM:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"legacy global-state API numpy.random.{parts[-1]}; use a "
                    "seeded Generator from repro.rng.ensure_rng/spawn",
                )
                return
        if parts[-1] == "default_rng" and not node.args and not node.keywords:
            yield ctx.diagnostic(
                node,
                self.code,
                "default_rng() without a seed is nondeterministic; route "
                "through repro.rng.ensure_rng (which owns the None case)",
            )


@register_rule
class MergeUnsafeAccumulatorRule(Rule):
    code = "RPR102"
    name = "merge-unsafe-accumulator-op"
    rationale = (
        "Sharded merges are byte-identical only because pre-FWHT "
        "accumulators stay pure int64 and every scatter-add goes through "
        "accumulate.bincount_accumulate with int64 flat indices; a stray "
        "float cast, np.add.at, or int32 index silently breaks merge "
        "invariance (and overflows past 2**31 entries)."
    )

    #: Directories whose accumulators are merge-critical.
    _SCOPED = ("core", "distributed", "transform")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_repro_package:
            return
        sanctioned = ctx.is_module("accumulate.py")
        scoped = ctx.in_package(*self._SCOPED)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                if not sanctioned:
                    yield from self._check_add_at(ctx, node)
                yield from self._check_bincount_indices(ctx, node)
            elif scoped and isinstance(node, ast.Assign):
                yield from self._check_assign(ctx, node)
            elif scoped and isinstance(node, ast.AugAssign):
                yield from self._check_augassign(ctx, node)

    def _check_add_at(self, ctx: FileContext, node: ast.Call) -> Iterator[Diagnostic]:
        name = dotted_name(node.func)
        if name in {"np.add.at", "numpy.add.at"}:
            yield ctx.diagnostic(
                node,
                self.code,
                "np.add.at is a banned scatter-add (slow); use "
                "repro.accumulate.bincount_accumulate",
            )

    def _check_bincount_indices(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterator[Diagnostic]:
        name = dotted_name(node.func)
        if name is None or name.split(".")[-1] not in {
            "bincount",
            "bincount_accumulate",
        }:
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "astype"
                    and any(
                        _is_int32_expr(a)
                        for a in list(sub.args)
                        + [kw.value for kw in sub.keywords if kw.arg == "dtype"]
                    )
                ):
                    yield ctx.diagnostic(
                        sub,
                        self.code,
                        "int32 flat indices feeding bincount overflow past "
                        "2**31 cells; build flat offsets in int64",
                    )

    def _check_assign(self, ctx: FileContext, node: ast.Assign) -> Iterator[Diagnostic]:
        names = [
            n for t in node.targets for n in target_names(t) if _ACC_NAME_RE.search(n)
        ]
        if not names:
            return
        cast = _float_cast_in(node.value)
        if cast is not None:
            yield ctx.diagnostic(
                cast,
                self.code,
                f"float cast bound to accumulator-named {names[0]!r}; pre-FWHT "
                "accumulators must stay int64 until finalisation (rename the "
                "result if this is a finalised copy)",
            )
        elif _contains_true_division(node.value):
            yield ctx.diagnostic(
                node,
                self.code,
                f"true division bound to accumulator-named {names[0]!r} yields "
                "float; keep merge-path accumulators int64 (or rename)",
            )

    def _check_augassign(
        self, ctx: FileContext, node: ast.AugAssign
    ) -> Iterator[Diagnostic]:
        names = [n for n in target_names(node.target) if _ACC_NAME_RE.search(n)]
        if not names:
            return
        if isinstance(node.op, ast.Div):
            yield ctx.diagnostic(
                node,
                self.code,
                f"in-place true division on accumulator {names[0]!r} turns it "
                "float; scale a finalised copy instead",
            )
        elif isinstance(node.op, (ast.Mult, ast.Add, ast.Sub)) and any(
            isinstance(sub, ast.Constant) and isinstance(sub.value, float)
            for sub in ast.walk(node.value)
        ):
            yield ctx.diagnostic(
                node,
                self.code,
                f"float-constant arithmetic on accumulator {names[0]!r}; "
                "merge-path accumulators must stay int64",
            )


@register_rule
class PrivacyBudgetBypassRule(Rule):
    code = "RPR104"
    name = "privacy-budget-bypass"
    rationale = (
        "Perturbation probabilities (anything of the form exp(epsilon)) must "
        "be computed inside mechanisms/ or privacy/ where the BudgetLedger "
        "and the LDP audits can account for them; an exp(eps) elsewhere is "
        "unaccounted privacy spend."
    )

    _EXEMPT = ("mechanisms", "privacy")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_repro_package or ctx.in_package(*self._EXEMPT):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or name.split(".")[-1] not in {"exp", "expm1", "exp2"}:
                continue
            if name not in {"exp", "expm1", "exp2"} and name.split(".")[-2] not in {
                "math",
                "np",
                "numpy",
            }:
                continue
            for arg in node.args:
                if _EPSILON_RE.search(ctx.segment(arg)):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        "exp() of an epsilon-named expression outside "
                        "mechanisms/ and privacy/; compute perturbation "
                        "probabilities where the budget ledger sees them",
                    )
                    break


@register_rule
class NondeterminismSmellRule(Rule):
    code = "RPR105"
    name = "nondeterminism-smell"
    rationale = (
        "Hot and experiment paths feed the bit-identity suites: iteration "
        "order over sets is hash-seed dependent, dict.popitem is "
        "order-sensitive, and wall-clock seeds make runs unreproducible — "
        "sort the iterable or thread a seeded Generator instead."
    )

    _SCOPED = ("core", "distributed", "transform", "experiments", "sketches", "hashing")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_repro_package or not ctx.in_package(*self._SCOPED):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                yield from self._check_iter(ctx, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    yield from self._check_iter(ctx, gen.iter)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, ast.Assign):
                bound = [
                    n
                    for t in node.targets
                    for n in target_names(t)
                    if _SEED_NAME_RE.search(n)
                ]
                if bound and self._wall_clock_in(node.value):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"wall clock bound to {bound[0]!r}; seeds must come "
                        "from explicit configuration or repro.rng.derive_seed",
                    )

    def _check_iter(self, ctx: FileContext, iter_node: ast.AST) -> Iterator[Diagnostic]:
        if self._is_set_expr(iter_node):
            yield ctx.diagnostic(
                iter_node,
                self.code,
                "iteration over a set has hash-seed-dependent order; wrap "
                "in sorted() to pin the traversal",
            )

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Diagnostic]:
        if isinstance(node.func, ast.Attribute) and node.func.attr == "popitem":
            yield ctx.diagnostic(
                node,
                self.code,
                "dict.popitem() removes an order-dependent entry; pop an "
                "explicit (sorted) key instead",
            )
            return
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in {"ensure_rng", "default_rng", "spawn"}:
            for arg in node.args:
                if self._wall_clock_in(arg):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        "wall-clock-derived seed; seeds must be explicit "
                        "configuration, not time.time()",
                    )
                    break
        for kw in node.keywords:
            if kw.arg and _SEED_NAME_RE.search(kw.arg) and self._wall_clock_in(kw.value):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"wall clock passed as {kw.arg!r}; seeds must be explicit "
                    "configuration, not time.time()",
                )

    @staticmethod
    def _wall_clock_in(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                name = dotted_name(sub.func)
                if name in {"time.time", "time.time_ns", "time.monotonic"}:
                    return True
        return False

    @classmethod
    def _is_set_expr(cls, node: ast.AST, _depth: int = 0) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name is not None and name.split(".")[-1] in {"set", "frozenset"}
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            if _depth > 4:
                return False
            return cls._is_set_expr(node.left, _depth + 1) or cls._is_set_expr(
                node.right, _depth + 1
            )
        return False


@register_rule
class ServiceBlockingCallRule(Rule):
    code = "RPR106"
    name = "blocking-call-in-async-service-path"
    rationale = (
        "The online service's event loop owns every connection: one "
        "blocking call (time.sleep, sync file I/O, a synchronous HTTP "
        "client) inside an async function stalls all of them, defeating "
        "the bounded-latency contract; real blocking work belongs in sync "
        "helpers dispatched via run_in_executor.  Wall-clock-seeded logic "
        "anywhere in service/ breaks the byte-identical-recovery invariant."
    )

    #: Dotted calls that block the loop wherever they appear.
    _BLOCKING_CALLS = {
        "time.sleep",
        "os.fsync",
        "os.fdatasync",
        "os.replace",
        "os.rename",
    }

    #: Attribute calls that are sync file I/O no matter the receiver
    #: (Path methods and raw handles share these names).
    _BLOCKING_ATTRS = {
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "fsync",
    }

    #: Import roots of synchronous HTTP clients — banned from service/
    #: entirely (even sync helpers run on the single service executor
    #: thread, where a stuck remote call wedges every fold behind it).
    _BLOCKING_CLIENT_ROOTS = {"requests"}

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_repro_package or not ctx.in_package("service"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in self._BLOCKING_CLIENT_ROOTS:
                        yield ctx.diagnostic(
                            node,
                            self.code,
                            f"synchronous HTTP client {alias.name!r} imported in "
                            "service/; use asyncio streams (or move the call "
                            "out of the service tier)",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0 and module.split(".")[0] in self._BLOCKING_CLIENT_ROOTS:
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"synchronous HTTP client {module!r} imported in "
                        "service/; use asyncio streams (or move the call out "
                        "of the service tier)",
                    )
            elif isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async_body(ctx, node)
            elif isinstance(node, ast.Assign):
                bound = [
                    n
                    for t in node.targets
                    for n in target_names(t)
                    if _SEED_NAME_RE.search(n)
                ]
                if bound and NondeterminismSmellRule._wall_clock_in(node.value):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"wall clock bound to {bound[0]!r} in service/; the "
                        "byte-identical-recovery invariant needs seeds derived "
                        "from configuration + WAL sequence, never the clock",
                    )

    def _check_async_body(
        self, ctx: FileContext, func: ast.AsyncFunctionDef
    ) -> Iterator[Diagnostic]:
        for node in self._async_scope(func):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in self._BLOCKING_CALLS:
                hint = (
                    "use asyncio.sleep"
                    if name == "time.sleep"
                    else "move it into a sync helper run via run_in_executor"
                )
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"blocking call {name}() inside async {func.name!r} stalls "
                    f"the event loop; {hint}",
                )
            elif name is not None and (
                name == "open" or name.split(".")[0] in self._BLOCKING_CLIENT_ROOTS
            ):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"blocking call {name}() inside async {func.name!r} stalls "
                    "the event loop; move it into a sync helper run via "
                    "run_in_executor",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._BLOCKING_ATTRS
            ):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"sync file I/O .{node.func.attr}() inside async "
                    f"{func.name!r} stalls the event loop; move it into a sync "
                    "helper run via run_in_executor",
                )

    @staticmethod
    def _async_scope(func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        """The statements that run *on the event loop* in ``func``.

        Nested sync defs and lambdas are skipped — they are the
        executor-target helpers the rule is steering work into — and
        nested async defs get their own visit from the outer walk.
        """
        stack: list = list(func.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))


@register_rule
class LedgerChargesMutationRule(Rule):
    code = "RPR107"
    name = "direct-ledger-charges-mutation"
    rationale = (
        "Charge rows carry the parallel-composition invariant: group names "
        "must stay collision-free when cohorts from different sessions land "
        "in one ledger, and only BudgetLedger.absorb (collision-renaming) "
        "in privacy/budget.py preserves that.  A direct .charges.append "
        "elsewhere can silently collapse two disjoint cohorts into one "
        "group and double-count epsilon."
    )

    #: In-place list mutators that write rows past the ledger API.
    _MUTATORS = {"append", "extend", "insert"}

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_repro_package:
            return
        if ctx.package_parts == ("privacy", "budget.py"):
            return  # the one sanctioned home of charge-row writes
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._MUTATORS
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "charges"
                ):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"direct .charges.{func.attr}() outside privacy/budget.py "
                        "bypasses collision renaming; use BudgetLedger.absorb",
                    )
            elif isinstance(node, ast.AugAssign):
                if (
                    isinstance(node.target, ast.Attribute)
                    and node.target.attr == "charges"
                ):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        "in-place += on a .charges list outside privacy/budget.py "
                        "bypasses collision renaming; use BudgetLedger.absorb",
                    )
