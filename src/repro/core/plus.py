"""LDPJoinSketch+ — the two-phase protocol (Algorithms 3 and 5).

Phase 1 (*find frequent join values*): a sampled fraction ``r`` of each
attribute's users runs the plain LDPJoinSketch client; the server builds
sketches ``MA`` and ``MB``, scans the domain with Theorem 7 frequency
estimates and forms the frequent-item set
``FI = FI_A ∪ FI_B`` with ``FI_X = {d : f~(d) > theta |S_X|}``.

Phase 2 (*join size estimation*): the remaining users of each attribute
are split into two equal groups.  Group 1 builds a sketch targeting
low-frequency values (``mode="L"``), group 2 one targeting high-frequency
values (``mode="H"``), both through Frequency-Aware Perturbation
(Algorithm 4).  Because the groups are disjoint, each enjoys the full
privacy budget (parallel composition).  The server removes the uniform
``|NT| / m`` contribution of non-target reports from each sketch
(Theorem 8), estimates the two partial join sizes, and rescales them to
population level:

.. math::

    \\widehat{|A \\bowtie B|} =
        \\frac{|A||B|}{|A_1||B_1|}\\,LEst +
        \\frac{|A||B|}{|A_2||B_2|}\\,HEst .

Correction-scaling note (documented deviation, see the README section
"Deviations from the paper"): Algorithm 5 computes the frequent mass at
*population* scale, but the sketches being corrected only saw one
*group* of users.  By default we subtract the group-scaled mass
``HighFreq_A * |A_1| / |A|``; set ``paper_faithful_correction=True`` for
the verbatim formula.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..api.result import EstimateResult
from ..errors import ParameterError, ProtocolError
from ..hashing import HashPairs
from ..rng import RandomState, ensure_rng, spawn
from ..validation import (
    as_value_array,
    require_positive_int,
    require_probability,
)
from .client import encode_reports
from .estimator import find_frequent_items
from .fap import MODE_HIGH, MODE_LOW, fap_encode_reports
from .params import SketchParams
from .server import LDPJoinSketch, build_sketch

__all__ = ["LDPJoinSketchPlus", "PlusEstimate"]

#: Deprecated alias — one LDPJoinSketch+ run now returns the unified
#: :class:`~repro.api.EstimateResult`; the protocol artefacts
#: (``low_estimate``, ``high_estimate``, ``frequent_items``,
#: ``high_freq_mass_a/b``, ``phase1_bits``, ``phase2_bits``,
#: ``fi_broadcast_bits``) travel in ``extras`` and stay reachable as
#: attributes.
PlusEstimate = EstimateResult


class LDPJoinSketchPlus:
    """Two-phase LDP join-size estimator (Algorithm 3).

    Parameters
    ----------
    params:
        Sketch shape and privacy budget used in *both* phases.
    sample_rate:
        Phase-1 sampling rate ``r`` (fraction of each attribute's users).
    threshold:
        Frequent-item threshold ``theta`` relative to the attribute size.
    phase1_params:
        Optional distinct shape for the phase-1 sketches (defaults to
        ``params``); Fig. 6 uses equal sizes in both phases.
    paper_faithful_correction:
        Subtract the verbatim population-scale non-target mass instead of
        the group-scaled one (see module docstring).
    fi_method:
        Read-out used to *select* frequent items in phase 1:
        ``"median"`` (default, collision-robust) or ``"mean"`` (paper
        verbatim).  Mass estimation always uses the unbiased mean
        estimator of Theorem 7.
    """

    def __init__(
        self,
        params: SketchParams,
        sample_rate: float = 0.1,
        threshold: float = 0.01,
        *,
        phase1_params: Optional[SketchParams] = None,
        paper_faithful_correction: bool = False,
        fi_method: str = "median",
    ) -> None:
        self.params = params
        self.sample_rate = require_probability("sample_rate", sample_rate, allow_one=False)
        self.threshold = require_probability("threshold", threshold)
        self.phase1_params = phase1_params if phase1_params is not None else params
        if self.phase1_params.epsilon != params.epsilon:
            raise ParameterError("both phases must run under the same privacy budget")
        self.paper_faithful_correction = bool(paper_faithful_correction)
        if fi_method not in ("median", "mean"):
            raise ParameterError(f"fi_method must be 'median' or 'mean', got {fi_method!r}")
        self.fi_method = fi_method

    # ------------------------------------------------------------------
    # Protocol driver
    # ------------------------------------------------------------------
    def estimate(
        self,
        values_a: np.ndarray,
        values_b: np.ndarray,
        domain_size: int,
        rng: RandomState = None,
    ) -> EstimateResult:
        """Run both phases end to end and return the join-size estimate.

        The returned :class:`~repro.api.EstimateResult` carries the
        uplink accounting of both phases and, in ``extras``, the
        intermediate artefacts of Algorithm 5 (partial estimates,
        frequent-item set, mass estimates, per-phase bit counts).
        """
        domain_size = require_positive_int("domain_size", domain_size)
        arr_a = as_value_array(values_a, "values_a")
        arr_b = as_value_array(values_b, "values_b")
        generator = ensure_rng(rng)

        sample_a, group_a1, group_a2 = self._split_users(arr_a, generator, "A")
        sample_b, group_b1, group_b2 = self._split_users(arr_b, generator, "B")

        # ---------------- Phase 1: find frequent join values ----------
        pairs1 = HashPairs(self.phase1_params.k, self.phase1_params.m, spawn(generator))
        reports_sa = encode_reports(sample_a, self.phase1_params, pairs1, generator)
        reports_sb = encode_reports(sample_b, self.phase1_params, pairs1, generator)
        sketch_sa = build_sketch(reports_sa, pairs1)
        sketch_sb = build_sketch(reports_sb, pairs1)

        # One scan of the domain reads both sketches: FI = FI_A ∪ FI_B and
        # each sketch's Theorem 7 mass over it.
        scan = find_frequent_items(
            (sketch_sa, sketch_sb), domain_size, self.threshold, method=self.fi_method
        )
        frequent_items = scan.items

        # Population-scale frequent mass (Algorithm 5 lines 1-4), clipped
        # to the physically possible range.
        high_mass_a = self._population_mass(scan.masses[0], arr_a.size, sample_a.size)
        high_mass_b = self._population_mass(scan.masses[1], arr_b.size, sample_b.size)

        # ---------------- Phase 2: four FAP sketches -------------------
        pairs2 = HashPairs(self.params.k, self.params.m, spawn(generator))
        sketch_la = self._fap_sketch(group_a1, MODE_LOW, pairs2, frequent_items, generator)
        sketch_lb = self._fap_sketch(group_b1, MODE_LOW, pairs2, frequent_items, generator)
        sketch_ha = self._fap_sketch(group_a2, MODE_HIGH, pairs2, frequent_items, generator)
        sketch_hb = self._fap_sketch(group_b2, MODE_HIGH, pairs2, frequent_items, generator)

        # ---------------- JoinEst (Algorithm 5) ------------------------
        low_est = self._join_est(
            sketch_la,
            sketch_lb,
            nt_mass_a=self._group_mass(high_mass_a, group_a1.size, arr_a.size),
            nt_mass_b=self._group_mass(high_mass_b, group_b1.size, arr_b.size),
        )
        high_est = self._join_est(
            sketch_ha,
            sketch_hb,
            nt_mass_a=self._group_mass(arr_a.size - high_mass_a, group_a2.size, arr_a.size),
            nt_mass_b=self._group_mass(arr_b.size - high_mass_b, group_b2.size, arr_b.size),
        )

        scale_low = (arr_a.size * arr_b.size) / (group_a1.size * group_b1.size)
        scale_high = (arr_a.size * arr_b.size) / (group_a2.size * group_b2.size)
        low_scaled = scale_low * low_est
        high_scaled = scale_high * high_est

        fi_bits = int(frequent_items.size) * max(1, int(np.ceil(np.log2(max(domain_size, 2)))))
        phase1_bits = reports_sa.total_bits + reports_sb.total_bits
        phase2_bits = self.params.report_bits * (
            group_a1.size + group_a2.size + group_b1.size + group_b2.size
        )
        phase1 = self.phase1_params
        return EstimateResult(
            estimate=low_scaled + high_scaled,
            uplink_bits=phase1_bits + phase2_bits,
            sketch_bytes=2 * phase1.k * phase1.m * 8 + 4 * self.params.k * self.params.m * 8,
            extras={
                "low_estimate": low_scaled,
                "high_estimate": high_scaled,
                "frequent_items": frequent_items,
                "high_freq_mass_a": high_mass_a,
                "high_freq_mass_b": high_mass_b,
                "phase1_bits": phase1_bits,
                "phase2_bits": phase2_bits,
                "fi_broadcast_bits": fi_bits,
            },
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _split_users(
        self,
        values: np.ndarray,
        rng: np.random.Generator,
        label: str,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample phase-1 users and split the remainder into two groups."""
        n = values.size
        if n < 4:
            raise ProtocolError(
                f"attribute {label} has {n} users; LDPJoinSketch+ needs at least 4"
            )
        permuted = values[rng.permutation(n)]
        sample_size = max(1, int(round(self.sample_rate * n)))
        if sample_size > n - 2:
            raise ProtocolError(
                f"sample_rate={self.sample_rate} leaves fewer than two phase-2 "
                f"users for attribute {label} (n={n})"
            )
        sample = permuted[:sample_size]
        rest = permuted[sample_size:]
        half = rest.size // 2
        return sample, rest[:half], rest[half:]

    def _population_mass(self, sample_mass: float, population: int, sample_size: int) -> float:
        """``sum_{d in FI} f~(d) * |X| / |S_X|``, clipped to ``[0, |X|]``.

        ``sample_mass`` is the sketch's Theorem 7 mass over ``FI``
        (``sum_{d in FI} f~(d)``, at sample scale).
        """
        sample_mass = min(max(sample_mass, 0.0), float(sample_size))
        return sample_mass * population / sample_size

    def _group_mass(self, population_mass: float, group_size: int, population: int) -> float:
        """Non-target mass attributable to one phase-2 group."""
        population_mass = min(max(population_mass, 0.0), float(population))
        if self.paper_faithful_correction:
            return population_mass
        return population_mass * group_size / population

    def _fap_sketch(
        self,
        group: np.ndarray,
        mode: str,
        pairs: HashPairs,
        frequent_items: np.ndarray,
        rng: np.random.Generator,
    ) -> LDPJoinSketch:
        """``Func sk`` of Algorithm 3: FAP-perturb a group, build its sketch."""
        reports = fap_encode_reports(group, mode, self.params, pairs, frequent_items, rng)
        return build_sketch(reports, pairs)

    def _join_est(
        self,
        sketch_a: LDPJoinSketch,
        sketch_b: LDPJoinSketch,
        nt_mass_a: float,
        nt_mass_b: float,
    ) -> float:
        """Algorithm 5: subtract non-target mass, then Eq. (5)."""
        m = self.params.m
        corrected_a = sketch_a.shifted(nt_mass_a / m)
        corrected_b = sketch_b.shifted(nt_mass_b / m)
        return corrected_a.join_size(corrected_b)
