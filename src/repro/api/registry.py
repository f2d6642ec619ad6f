"""String-keyed registry of join-size estimators.

One private sketch serves many analyses, so the package serves many
estimators through one interface: anything satisfying the
:class:`JoinEstimator` protocol can be registered under a canonical name
(plus aliases) and later instantiated with :func:`get_estimator`.  The
experiment harness, the CLI and the examples all dispatch through this
registry instead of hard-coding per-method adapters.

Names are case-insensitive and separator-insensitive: ``"LDPJoinSketch+"``,
``"ldpjs-plus"`` and ``"ldp_join_sketch_plus"`` resolve to the same
factory.

>>> from repro.api import available_estimators, get_estimator
>>> "ldp-join-sketch" in available_estimators()
True
>>> get_estimator("LDPJoinSketch").name
'LDPJoinSketch'
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Protocol, Tuple, runtime_checkable

from ..errors import UnknownEstimatorError
from ..rng import RandomState
from .result import EstimateResult

__all__ = [
    "JoinEstimator",
    "register",
    "get_estimator",
    "available_estimators",
    "resolve_estimator",
]


@runtime_checkable
class JoinEstimator(Protocol):
    """What the registry hands out: a join-size estimation method.

    Implementations turn a :class:`~repro.data.base.JoinInstance` and a
    privacy budget into an :class:`EstimateResult`.  ``name`` is the
    display name used in result tables (matching the paper's figure
    legends); ``private`` states whether the method carries an LDP
    guarantee.
    """

    name: str
    private: bool

    def estimate(
        self,
        instance: "JoinInstance",  # noqa: F821 - structural typing only
        epsilon: float,
        seed: RandomState = None,
    ) -> EstimateResult:
        """Estimate the join size of ``instance`` under budget ``epsilon``."""
        ...

    def report_bits_for(self, domain_size: int, epsilon: float) -> int:
        """Uplink bits one client transmits (cheap, no simulation)."""
        ...


EstimatorFactory = Callable[..., JoinEstimator]

_FACTORIES: Dict[str, EstimatorFactory] = {}
_ALIASES: Dict[str, str] = {}


def _canonical(name: str) -> str:
    """Normalise a user-supplied estimator name to a registry key."""
    return str(name).strip().lower().replace("_", "-").replace(" ", "-")


def register(
    name: str,
    factory: EstimatorFactory = None,
    *,
    aliases: Iterable[str] = (),
    replace: bool = False,
):
    """Register an estimator factory under ``name`` (and ``aliases``).

    Usable directly (``register("krr", KRREstimator)``) or as a class
    decorator::

        @register("my-method", aliases=("mm",))
        class MyMethod: ...

    ``factory`` is any callable returning a :class:`JoinEstimator`;
    keyword arguments of :func:`get_estimator` are forwarded to it.
    """

    def _do_register(fact: EstimatorFactory) -> EstimatorFactory:
        # Load the builtins first so a user registration cannot silently
        # claim a builtin name (the collision would otherwise only
        # surface — permanently — on the first lookup).  Re-entrant
        # calls from the builtin module's own import are a no-op.
        _ensure_builtins()
        key = _canonical(name)
        if not key:
            raise UnknownEstimatorError("estimator name must be non-empty")
        alias_keys = [
            ak for ak in (_canonical(alias) for alias in aliases) if ak != key
        ]
        # Validate everything before mutating: a rejected registration
        # must leave the registry untouched.
        if not replace and (key in _FACTORIES or key in _ALIASES):
            raise UnknownEstimatorError(f"estimator {key!r} is already registered")
        for alias_key in alias_keys:
            if alias_key in _FACTORIES:
                # Never allowed, even with replace: redirecting a
                # canonical name would orphan the aliases pointing at it.
                raise UnknownEstimatorError(
                    f"alias {alias_key!r} would shadow a registered estimator"
                )
            if not replace and alias_key in _ALIASES:
                raise UnknownEstimatorError(f"estimator alias {alias_key!r} is already taken")
        _FACTORIES[key] = fact
        if replace:
            # Dropping a stale alias keeps the new factory reachable
            # (resolution consults _ALIASES before _FACTORIES).
            _ALIASES.pop(key, None)
        for alias_key in alias_keys:
            _ALIASES[alias_key] = key
        return fact

    if factory is None:
        return _do_register
    return _do_register(factory)


def _ensure_builtins() -> None:
    """Load the built-in estimator module (registers on first import)."""
    from . import estimators  # noqa: F401 - imported for its side effects


def resolve_estimator(name: str) -> str:
    """The canonical registry key for ``name`` (raises if unknown)."""
    _ensure_builtins()
    key = _canonical(name)
    key = _ALIASES.get(key, key)
    if key not in _FACTORIES:
        known = ", ".join(sorted(_FACTORIES))
        raise UnknownEstimatorError(
            f"unknown estimator {name!r}; registered estimators: {known}"
        )
    return key


def get_estimator(name: str, **options) -> JoinEstimator:
    """Instantiate the estimator registered under ``name``.

    ``options`` are forwarded to the factory, e.g.
    ``get_estimator("ldpjs", k=18, m=1024)``.
    """
    return _FACTORIES[resolve_estimator(name)](**options)


def available_estimators() -> Tuple[str, ...]:
    """Sorted canonical names of every registered estimator."""
    _ensure_builtins()
    return tuple(sorted(_FACTORIES))
