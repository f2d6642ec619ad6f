"""k-wise independent polynomial hashing over a Mersenne prime.

The classic construction (Wegman & Carter): draw coefficients
``c_0 .. c_{k-1}`` uniformly from the field ``GF(p)`` with ``c_{k-1} != 0``
and evaluate

.. math::  g(x) = \\Big( \\sum_{t<k} c_t x^t \\Big) \\bmod p .

For inputs restricted to ``[0, p)`` the family is exactly ``k``-wise
independent over ``[0, p)``.  We fix ``p = 2^31 - 1`` (a Mersenne prime):

* every join-attribute domain used in the paper (at most a few million
  distinct ids) fits comfortably below ``p``;
* two 31-bit residues multiply without overflow inside ``uint64``, so the
  Horner evaluation is exactly computable with vectorised NumPy — no
  arbitrary-precision arithmetic on the hot path.

:class:`KWiseHash` evaluates batches of values; range reduction to ``[m]``
or to signs is layered on top (see :mod:`repro.hashing.sign` and
:class:`repro.hashing.pairs.HashPairs`).

The batched entry points :func:`polyval_rows` (one polynomial per
element, the client hot path) and :func:`polyval_all` (every polynomial
against the whole batch, the server scan path) share one lazy-fold
Horner loop.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import DomainError, ParameterError
from ..rng import RandomState, ensure_rng
from ..validation import require_positive_int

__all__ = [
    "MERSENNE_PRIME_31",
    "KWiseHash",
    "check_domain",
    "mod_mersenne31",
    "polyval_mersenne",
    "polyval_rows",
    "polyval_all",
    "reduce_mod_m",
]

#: The field modulus: fifth Mersenne prime, 2**31 - 1.
MERSENNE_PRIME_31 = (1 << 31) - 1

_P64 = np.uint64(MERSENNE_PRIME_31)
_SHIFT = np.uint64(31)


def check_domain(values: np.ndarray) -> None:
    """Raise :class:`DomainError` unless every value lies in ``[0, p)``.

    The single range gate shared by every hash-evaluation entry point
    (scalar, per-report gather, all-rows, and the fused client kernel's
    whole-batch upfront check).
    """
    if values.size and (values.min() < 0 or values.max() >= MERSENNE_PRIME_31):
        raise DomainError("hash inputs must lie in [0, 2**31 - 1)")


def reduce_mod_m(raw: np.ndarray, m: int) -> np.ndarray:
    """Map field residues into ``[0, m)`` — a mask when ``m`` is ``2**b``.

    The single bucket-reduction shared by :class:`~repro.hashing.pairs.HashPairs`
    and the fused client encode, so the fused and non-fused encode paths
    cannot drift apart.
    """
    if m & (m - 1) == 0:
        return (raw & np.uint64(m - 1)).astype(np.int64)
    return (raw % np.uint64(m)).astype(np.int64)


def mod_mersenne31(x: np.ndarray) -> np.ndarray:
    """Reduce ``uint64`` values below ``2**62`` modulo ``2**31 - 1``.

    Uses the Mersenne shift-add identity ``x mod p = (x & p) + (x >> 31)
    (mod p)`` twice followed by one conditional subtraction — three cheap
    bitwise passes instead of a 64-bit integer division per element, which
    is what makes the Horner evaluation below the hot-loop winner.

    The first fold maps ``x < 2**62`` below ``2**32``; the second maps that
    below ``2**31 + 1``; the final comparison folds the two remaining
    aliases (``p`` and ``p + 1``) into canonical ``[0, p)``.
    """
    x = (x & _P64) + (x >> _SHIFT)
    x = (x & _P64) + (x >> _SHIFT)
    return np.where(x >= _P64, x - _P64, x)


def polyval_mersenne(coefficients: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Batched Horner evaluation of modular polynomials over ``GF(p)``.

    ``coefficients`` has shape ``(..., degree)`` (low degree first, every
    entry in ``[0, p)``); ``x`` must broadcast against ``coefficients[..., 0]``
    and lie in ``[0, p)``.  Evaluates one polynomial per leading position —
    the kernel behind both the per-report gather (one polynomial per
    report) and the all-rows matrix evaluation of
    :meth:`repro.hashing.pairs.HashPairs.bucket_all`.
    """
    coefficients = np.asarray(coefficients, dtype=np.uint64)
    x = np.asarray(x, dtype=np.uint64)
    acc = np.broadcast_arrays(coefficients[..., -1], x)[0].copy()
    for t in range(coefficients.shape[-1] - 2, -1, -1):
        # acc, x < 2**31 so acc * x + c < 2**62 + 2**31 fits in uint64.
        acc = mod_mersenne31(acc * x + coefficients[..., t])
    return acc


def _lazy_horner(acc: np.ndarray, x: np.ndarray, fetch, steps: int) -> np.ndarray:
    """Shared in-place Horner loop with *lazy* Mersenne folds.

    ``acc`` is an owned uint64 array in ``[0, p)``; ``fetch(t)`` yields the
    degree-``t`` coefficient broadcastable against ``acc`` (written into a
    scratch buffer by the caller).  Between Horner steps only a single
    shift-add fold runs — full canonicalisation would be wasted work — and
    a second fold every third step caps the drift.

    Why one fold suffices: with ``acc < B`` the step value is
    ``y = acc * x + c <= (B + 1) * (p - 1)`` and one fold maps it below
    ``2**31 + B + 2``, so the bound grows by ``~2**31`` per step from
    ``B_0 < 2**31``.  The uint64 product stays exact while ``B < ~2**33``,
    i.e. for three consecutive single-fold steps; the periodic double fold
    resets the bound before the fourth.  The loop therefore ends with
    ``acc < 2**33``, where one final fold lands in ``[0, p + 4]`` and a
    single conditional subtraction restores canonical ``[0, p)``.
    """
    hi = np.empty_like(acc)
    for i in range(steps):
        t = steps - 1 - i  # degree of the coefficient entering this step
        acc *= x
        acc += fetch(t)
        np.right_shift(acc, _SHIFT, out=hi)
        acc &= _P64
        acc += hi
        if i % 3 == 2 and i != steps - 1:
            np.right_shift(acc, _SHIFT, out=hi)
            acc &= _P64
            acc += hi
    np.right_shift(acc, _SHIFT, out=hi)
    acc &= _P64
    acc += hi
    np.subtract(acc, _P64, out=acc, where=acc >= _P64)
    return acc


def polyval_rows(coefficients_t: np.ndarray, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-element polynomial gather-and-evaluate: ``g_{rows[i]}(x[i])``.

    ``coefficients_t`` is the *transposed* ``(degree, k)`` coefficient
    matrix; ``rows`` selects the polynomial per element and must lie in
    ``[0, k)``; ``x`` holds the evaluation points in ``[0, p)`` as
    uint64.  This is the client hot path: one hash evaluation per report.

    One contiguous coefficient row per degree means each per-report
    gather is a flat ``np.take`` instead of a strided column read — the
    difference is ~2x on million-report batches.
    """
    degree = coefficients_t.shape[0]
    # mode="clip" keeps np.take on its unbuffered fast path (~2.5x the
    # default bounds-raising path); callers guarantee the row range.
    acc = coefficients_t[-1].take(rows, mode="clip")
    if degree == 1:
        return acc
    cbuf = np.empty_like(acc)

    def fetch(t: int) -> np.ndarray:
        np.take(coefficients_t[t], rows, out=cbuf, mode="clip")
        return cbuf

    return _lazy_horner(acc, x, fetch, degree - 1)


def polyval_all(coefficients_t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """All-rows evaluation: matrix ``G[j, i] = g_j(x[i])`` — shape ``(k, n)``.

    ``coefficients_t`` is the transposed ``(degree, k)`` matrix; every
    polynomial is evaluated against the whole batch (the server-side
    scan path) in one broadcast Horner pass over all rows at once.
    """
    degree, k = coefficients_t.shape
    x = x[None, :]
    acc = np.repeat(coefficients_t[-1][:, None], x.shape[1], axis=1)
    if degree == 1:
        return acc
    return _lazy_horner(acc, x, lambda t: coefficients_t[t][:, None], degree - 1)


class KWiseHash:
    """A single hash function drawn from a k-wise independent family.

    Parameters
    ----------
    independence:
        Degree of independence ``k`` (the polynomial has ``k``
        coefficients).  ``2`` gives pairwise, ``4`` four-wise independence.
    seed:
        Seed / generator used to draw the coefficients.  Two instances
        created from the same seed are identical functions.
    coefficients:
        Explicit coefficients (low degree first); mutually exclusive with
        ``seed``-based sampling and mainly used by tests and serialisation.
    """

    __slots__ = ("independence", "coefficients")

    def __init__(
        self,
        independence: int = 4,
        seed: RandomState = None,
        *,
        coefficients: Optional[Sequence[int]] = None,
    ) -> None:
        self.independence = require_positive_int("independence", independence)
        if coefficients is not None:
            coeffs = np.asarray(list(coefficients), dtype=np.uint64)
            if coeffs.shape != (self.independence,):
                raise ParameterError(
                    f"expected {self.independence} coefficients, got {coeffs.shape}"
                )
            if np.any(coeffs >= MERSENNE_PRIME_31):
                raise ParameterError("coefficients must lie in [0, 2**31 - 1)")
            if self.independence > 1 and coeffs[-1] == 0:
                raise ParameterError("leading coefficient must be non-zero")
            self.coefficients = coeffs
        else:
            rng = ensure_rng(seed)
            coeffs = rng.integers(0, MERSENNE_PRIME_31, size=self.independence, dtype=np.int64)
            if self.independence > 1 and coeffs[-1] == 0:
                coeffs[-1] = 1  # keep the polynomial at full degree
            self.coefficients = coeffs.astype(np.uint64)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Evaluate the polynomial at ``values``; result lies in ``[0, p)``.

        ``values`` may be a scalar or an integer array; values must lie in
        ``[0, 2**31 - 1)``.
        """
        scalar = np.isscalar(values)
        x = np.asarray(values, dtype=np.int64)
        check_domain(x)
        # Evaluated flat: a 0-d input would compute on numpy scalars,
        # which warn when mod_mersenne31's conditional subtraction wraps
        # around (arrays wrap silently, and the result is the same).
        flat = x.reshape(-1).astype(np.uint64)
        out = polyval_mersenne(self.coefficients, flat).astype(np.int64).reshape(x.shape)
        if scalar:
            return int(out)
        return out

    def bucket(self, values: np.ndarray, m: int) -> np.ndarray:
        """Reduce hash outputs into ``[0, m)`` (bucket hash ``h``)."""
        m = require_positive_int("m", m)
        out = self(values)
        if np.isscalar(out) or isinstance(out, int):
            return int(out) % m
        return out % m

    # ------------------------------------------------------------------
    # Introspection / serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialise to a plain dict (inverse of :meth:`from_dict`)."""
        return {
            "independence": self.independence,
            "coefficients": [int(c) for c in self.coefficients],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "KWiseHash":
        """Rebuild a hash function serialised by :meth:`to_dict`."""
        return cls(payload["independence"], coefficients=payload["coefficients"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KWiseHash):
            return NotImplemented
        return self.independence == other.independence and bool(
            np.array_equal(self.coefficients, other.coefficients)
        )

    def __hash__(self) -> int:
        return hash((self.independence, tuple(int(c) for c in self.coefficients)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"KWiseHash(independence={self.independence}, coefficients={self.coefficients.tolist()})"
