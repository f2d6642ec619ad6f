"""Server side of LDPJoinSketch — Algorithm 2 (PriSK) of the paper.

The server receives ``(y, j, l)`` triples, accumulates ``k * c_eps * y``
into counter ``[j, l]`` (debiasing both the row sampling and the sign
channel) and finally multiplies the sketch by ``H_m^T`` to undo the
client-side Hadamard transform.  Because ``H_m`` is symmetric, the inverse
step is one fast Walsh--Hadamard transform per row.

:class:`LDPJoinSketch` is the resulting summary.  It supports:

* **join-size estimation** (Eq. 5): ``median_j sum_x MA[j, x] MB[j, x]``
  against a sketch built with the same hash pairs;
* **frequency estimation** (Theorem 7):
  ``f~(d) = mean_j M[j, h_j(d)] xi_j(d)``, which is unbiased;
* **uniform-mass subtraction** (:meth:`shifted`) — removing the expected
  ``|NT| / m`` contribution of non-target values, the server half of the
  LDPJoinSketch+ correction (Theorem 8 / Algorithm 5).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..accumulate import scatter_add_signed_units
from ..errors import IncompatibleSketchError, ParameterError, require_merge_compatible
from ..hashing import HashPairs
from ..serialization import decode_array, encode_array
from ..transform.hadamard import fwht_inplace
from ..validation import as_value_array
from .client import ReportBatch
from .params import SketchParams

__all__ = ["LDPJoinSketch", "build_sketch"]


class LDPJoinSketch:
    """A constructed (post-transform) LDP join sketch.

    Instances are normally produced by :func:`build_sketch` or, from a
    merged raw accumulator, :meth:`from_raw`; the constructor accepts a
    pre-computed counter array for internal uses (shifting, testing,
    serialisation).
    """

    __slots__ = ("params", "pairs", "counts", "num_reports")

    def __init__(
        self,
        params: SketchParams,
        pairs: HashPairs,
        counts: Optional[np.ndarray] = None,
        num_reports: int = 0,
    ) -> None:
        if pairs.k != params.k or pairs.m != params.m:
            raise ParameterError(
                f"hash pairs shaped ({pairs.k}, {pairs.m}) do not match params "
                f"({params.k}, {params.m})"
            )
        self.params = params
        self.pairs = pairs
        if counts is None:
            counts = np.zeros((params.k, params.m), dtype=np.float64)
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != (params.k, params.m):
            raise ParameterError(
                f"counts shaped {counts.shape} do not match ({params.k}, {params.m})"
            )
        self.counts = counts
        self.num_reports = int(num_reports)

    @classmethod
    def from_raw(
        cls,
        params: SketchParams,
        pairs: HashPairs,
        raw: np.ndarray,
        num_reports: int,
    ) -> "LDPJoinSketch":
        """Algorithm 2's server step on an accumulator of raw reports.

        ``raw`` is the int64 sum of the ``(y, j, l)`` reports (the
        mergeable pre-transform state).  Debias it by ``k * c_eps`` and
        invert the client transform with one FWHT per row; ``raw`` itself
        is left untouched.
        """
        counts = raw.astype(np.float64)
        counts *= params.scale  # scale = k * c_epsilon
        fwht_inplace(counts)  # M <- M @ H_m^T (H is symmetric)
        return cls(params, pairs, counts, num_reports)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Number of rows."""
        return self.params.k

    @property
    def m(self) -> int:
        """Number of columns."""
        return self.params.m

    def memory_bytes(self) -> int:
        """Size of the counter array in bytes (space-cost accounting)."""
        return int(self.counts.nbytes)

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def check_compatible(self, other: "LDPJoinSketch") -> None:
        """Raise unless ``other`` shares shape and hash pairs."""
        if not isinstance(other, LDPJoinSketch):
            raise IncompatibleSketchError(
                f"cannot combine LDPJoinSketch with {type(other).__name__}"
            )
        if self.params.k != other.params.k or self.params.m != other.params.m:
            raise IncompatibleSketchError(
                f"shape mismatch: ({self.k}, {self.m}) vs ({other.k}, {other.m})"
            )
        if self.pairs != other.pairs:
            raise IncompatibleSketchError(
                "sketches use different hash pairs; join estimation requires shared pairs"
            )

    def join_size(self, other: "LDPJoinSketch") -> float:
        """Eq. (5): median over rows of the row-wise inner products."""
        self.check_compatible(other)
        per_row = np.einsum("jx,jx->j", self.counts, other.counts)
        return float(np.median(per_row))

    def row_inner_products(self, other: "LDPJoinSketch") -> np.ndarray:
        """The ``k`` individual estimators whose median is Eq. (5)."""
        self.check_compatible(other)
        return np.einsum("jx,jx->j", self.counts, other.counts)

    def join_size_restricted(self, other: "LDPJoinSketch", values: Iterable[int]) -> float:
        """Join size restricted to a value subset (predicate support).

        Answers ``SELECT COUNT(*) ... WHERE A = B AND A IN (values)`` by
        summing the product of Theorem 7 frequency estimates over the
        subset.  Unlike Eq. (5) this accumulates one estimation error per
        listed value, so it suits *selective* predicates; for the full
        domain prefer :meth:`join_size`.
        """
        self.check_compatible(other)
        arr = as_value_array(values)
        return float(np.dot(self.frequencies(arr), other.frequencies(arr)))

    def second_moment(self) -> float:
        """Debiased self-join size (``F2``) estimate.

        Unlike the cross product of two sketches (whose independent noises
        cancel in expectation), the self product accumulates the noise
        energy of every report: each report adds ``m * k * c_eps^2`` to
        ``sum_x M[j, x]^2`` in expectation while its self-pair in the
        signal accounts for ``1``.  Subtracting ``n (m k c_eps^2 - 1)``
        restores an (asymptotically) unbiased ``F2`` estimate, enabling
        private norms/cosine similarity from a single sketch.
        """
        per_row = np.einsum("jx,jx->j", self.counts, self.counts)
        noise_energy = self.num_reports * (
            self.params.m * self.params.k * self.params.c_epsilon**2 - 1.0
        )
        return float(np.median(per_row) - noise_energy)

    def frequency(self, value: int, *, method: str = "mean") -> float:
        """Theorem 7 unbiased point estimate of ``f(value)``."""
        return float(self.frequencies(np.asarray([value], dtype=np.int64), method=method)[0])

    def frequencies(self, values: Iterable[int], *, method: str = "mean") -> np.ndarray:
        """Vectorised Theorem 7 estimates ``mean_j M[j, h_j(d)] xi_j(d)``.

        ``method="mean"`` is the paper's unbiased estimator.
        ``method="median"`` is the Count-Sketch read-out of the same
        sketch: slightly biased but robust to a single heavy hash
        collision, which matters when *selecting* frequent items (one
        colliding heavy value swings the mean of k rows by ``f_heavy / k``,
        far above any useful threshold, but leaves the median untouched).
        """
        if method not in ("mean", "median"):
            raise ParameterError(f"method must be 'mean' or 'median', got {method!r}")
        arr = as_value_array(values)
        if arr.size == 0:
            return np.zeros(0, dtype=np.float64)
        buckets = self.pairs.bucket_all(arr)      # (k, n)
        signs = self.pairs.sign_all(arr)          # (k, n)
        rows = np.arange(self.k, dtype=np.int64)[:, None]
        picked = self.counts[rows, buckets] * signs
        if method == "median":
            return np.median(picked, axis=0)
        return np.mean(picked, axis=0)

    def shifted(self, per_cell_mass: float) -> "LDPJoinSketch":
        """A copy with ``per_cell_mass`` subtracted from every counter.

        Implements lines 6-7 / 10-11 of Algorithm 5: the expected
        contribution of ``|NT|`` non-target FAP reports is ``|NT| / m`` per
        counter (Theorem 8), so passing ``per_cell_mass = |NT| / m``
        removes it.
        """
        return LDPJoinSketch(
            self.params,
            self.pairs,
            self.counts - float(per_cell_mass),
            self.num_reports,
        )

    # ------------------------------------------------------------------
    # Linearity
    # ------------------------------------------------------------------
    def check_mergeable(self, other: "LDPJoinSketch") -> None:
        """Raise :class:`IncompatibleSketchError` unless ``other`` can be
        merged into this sketch.

        Merging requires everything :meth:`check_compatible` checks (shape
        and shared hash pairs) *plus* identical :class:`SketchParams` —
        sketches built under different privacy budgets carry different
        debiasing scales, so their sum estimates nothing.  Shared by
        :meth:`merge` and :meth:`repro.api.JoinSession.merge`; the
        parameter comparison goes through the one
        :func:`repro.errors.require_merge_compatible` gate every merge
        path uses.
        """
        self.check_compatible(other)
        require_merge_compatible(
            "sketches",
            k=(self.params.k, other.params.k),
            m=(self.params.m, other.params.m),
            **{"privacy budget (epsilon)": (self.params.epsilon, other.params.epsilon)},
        )

    def merge(self, other: "LDPJoinSketch") -> "LDPJoinSketch":
        """Add ``other``'s counters into this sketch. Returns self."""
        self.check_mergeable(other)
        self.counts += other.counts
        self.num_reports += other.num_reports
        return self

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialise the sketch (parameters, hash pairs, counters).

        The payload is plain JSON-compatible Python data, so a constructed
        sketch can be persisted or shipped between processes; the hash
        pairs travel with it, keeping the result joinable after
        :meth:`from_dict`.  Counters are packed as base64-encoded raw
        bytes (see :mod:`repro.serialization`); :meth:`from_dict` also
        accepts the older nested-list payloads.
        """
        return {
            "params": {
                "k": self.params.k,
                "m": self.params.m,
                "epsilon": self.params.epsilon,
            },
            "pairs": self.pairs.to_dict(),
            "counts": encode_array(self.counts),
            "num_reports": self.num_reports,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LDPJoinSketch":
        """Rebuild a sketch serialised by :meth:`to_dict` (either format)."""
        params = SketchParams(**payload["params"])
        pairs = HashPairs.from_dict(payload["pairs"])
        counts = decode_array(payload["counts"], np.float64)
        return cls(params, pairs, counts, int(payload["num_reports"]))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LDPJoinSketch(k={self.k}, m={self.m}, epsilon={self.params.epsilon:g}, "
            f"num_reports={self.num_reports})"
        )


def build_sketch(
    reports: ReportBatch,
    pairs: HashPairs,
) -> LDPJoinSketch:
    """Algorithm 2 (PriSK): accumulate debiased reports, invert the transform.

    Parameters
    ----------
    reports:
        Batch of ``(y, j, l)`` client reports (carries the parameters).
    pairs:
        The hash pairs shared with the clients — the server needs them
        later for frequency estimation and compatibility checks; the
        construction itself only uses the indices.
    """
    params = reports.params
    raw = np.zeros((params.k, params.m), dtype=np.int64)
    scatter_add_signed_units(raw, (reports.rows, reports.cols), reports.ys)
    return LDPJoinSketch.from_raw(params, pairs, raw, len(reports))
