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

The protocol is exposed as its phase steps over mergeable
:class:`~repro.distributed.PartialAggregate` objects: ``split``,
``phase1_partial``, ``scan`` (whose ``FI`` is broadcast),
``phase2_partial`` and ``finalize``, plus ``rescan`` for a shard lost
after the broadcast.  Sketches are linear, so :meth:`~LDPJoinSketchPlus.estimate`
runs the steps once as a single shard, and
:func:`repro.distributed.estimate_sharded` runs them across shards.

Correction-scaling note (documented deviation, see the README section
"Deviations from the paper"): Algorithm 5 computes the frequent mass at
*population* scale, but the sketches being corrected only saw one
*group* of users.  By default we subtract the group-scaled mass
``HighFreq_A * |A_1| / |A|``; set ``paper_faithful_correction=True`` for
the verbatim formula.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

import numpy as np

from ..accumulate import scatter_add_signed_units
from ..api.result import EstimateResult
from ..errors import ParameterError, ProtocolError
from ..hashing import HashPairs
from ..privacy.budget import BudgetLedger, PrivacySpec
from ..rng import RandomState, ensure_rng, spawn
from ..validation import (
    as_value_array,
    require_positive_int,
    require_probability,
)
from .client import ReportBatch, encode_reports
from .estimator import FrequentScan, find_frequent_items
from .fap import MODE_HIGH, MODE_LOW, fap_encode_reports
from .params import SketchParams
from .server import LDPJoinSketch

if TYPE_CHECKING:  # pragma: no cover - the distributed layer imports this module
    from ..distributed.partial import PartialAggregate

__all__ = ["LDPJoinSketchPlus", "PlusEstimate", "PLUS_METHOD"]

#: Deprecated alias — one LDPJoinSketch+ run now returns the unified
#: :class:`~repro.api.EstimateResult`; the protocol artefacts
#: (``low_estimate``, ``high_estimate``, ``frequent_items``,
#: ``high_freq_mass_a/b``, ``phase1_bits``, ``phase2_bits``,
#: ``fi_broadcast_bits``) travel in ``extras`` and stay reachable as
#: attributes.
PlusEstimate = EstimateResult

#: The ``method`` of every LDPJoinSketch+ partial (its registry key).
PLUS_METHOD = "ldp-join-sketch-plus"

#: The six disjoint user groups of one run, as the ledger names them.
#: Each user is perturbed once, in exactly one group, so each group is
#: charged the full budget (parallel composition).
_LEDGER_GROUPS = ("A-sample", "A1", "A2", "B-sample", "B1", "B2")

#: Phase-2 sketches: ``(label, user group, FAP mode)`` in encode order.
_PHASE2 = (
    ("LA", "A1", MODE_LOW),
    ("LB", "B1", MODE_LOW),
    ("HA", "A2", MODE_HIGH),
    ("HB", "B2", MODE_HIGH),
)


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

        The phase steps run once, as a single shard holding every user.
        The returned :class:`~repro.api.EstimateResult` is
        :meth:`finalize`'s, timed: both phases' uplink accounting, the
        six-group privacy ledger and, in ``extras``, the intermediate
        artefacts of Algorithm 5.
        """
        domain_size = require_positive_int("domain_size", domain_size)
        arr_a = as_value_array(values_a, "values_a")
        arr_b = as_value_array(values_b, "values_b")
        generator = ensure_rng(rng)
        start = time.perf_counter()
        groups = self.split(arr_a, arr_b, generator)
        phase1 = self.phase1_params
        pairs1 = HashPairs(phase1.k, phase1.m, spawn(generator))
        merged1 = self.phase1_partial(groups, pairs1, generator, {})
        scan = self.scan(merged1, pairs1, domain_size)
        pairs2 = HashPairs(self.params.k, self.params.m, spawn(generator))
        merged2 = self.phase2_partial(groups, pairs2, scan.items, generator, {})
        result = self.finalize(merged1, merged2, pairs2, scan, domain_size)
        return result.with_costs(offline_seconds=time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Phase steps
    # ------------------------------------------------------------------
    def split(
        self,
        values_a: np.ndarray,
        values_b: np.ndarray,
        rng: np.random.Generator,
    ) -> Dict[str, np.ndarray]:
        """Split one shard's users of both attributes (``A`` first).

        Returns the phase-1 samples ``"SA"`` / ``"SB"`` and the phase-2
        groups ``"A1"``, ``"A2"``, ``"B1"``, ``"B2"``.  ``rng`` is the
        shard's stream; the phase steps after it continue it.
        """
        sample_a, group_a1, group_a2 = self._split_users(values_a, rng, "A")
        sample_b, group_b1, group_b2 = self._split_users(values_b, rng, "B")
        return {
            "SA": sample_a,
            "A1": group_a1,
            "A2": group_a2,
            "SB": sample_b,
            "B1": group_b1,
            "B2": group_b2,
        }

    def phase1_partial(
        self,
        groups: Mapping[str, np.ndarray],
        pairs1: HashPairs,
        rng: np.random.Generator,
        fingerprint: Mapping[str, object],
    ) -> "PartialAggregate":
        """Phase 1 of one shard: its sampled users' LDPJoinSketch reports.

        Arrays ``SA:raw`` / ``SB:raw`` are the int64 report accumulators
        under the shared phase-1 hash pairs, with their report counts.
        Counters ``A1:size`` ... ``B2:size`` carry the phase-2 group
        sizes, so merged partials alone determine the covered population.
        ``fingerprint`` is what merging shards must share; the round is
        added to it.
        """
        partial = _partial(fingerprint, 1)
        for label in ("SA", "SB"):
            reports = encode_reports(groups[label], self.phase1_params, pairs1, rng)
            partial.add_array(f"{label}:raw", _accumulate(reports))
            partial.counters[f"{label}:num_reports"] = float(groups[label].size)
        for name in ("A1", "A2", "B1", "B2"):
            partial.counters[f"{name}:size"] = float(groups[name].size)
        return partial

    def scan(
        self,
        merged1: "PartialAggregate",
        pairs1: HashPairs,
        domain_size: int,
    ) -> FrequentScan:
        """The frequent items of a merged phase-1 partial, to broadcast.

        One scan of the domain reads both phase-1 sketches:
        ``FI = FI_A ∪ FI_B`` and each sketch's Theorem 7 mass over it,
        at sample scale.
        """
        return find_frequent_items(
            self._phase1_sketches(merged1, pairs1),
            domain_size,
            self.threshold,
            method=self.fi_method,
        )

    def rescan(
        self,
        merged1: "PartialAggregate",
        pairs1: HashPairs,
        frequent_items: np.ndarray,
    ) -> FrequentScan:
        """Each attribute's frequent mass over an already broadcast ``FI``.

        For shards lost after the broadcast: ``FI`` stands, but the mass
        must describe the survivors, so it is read from the sketches of
        their re-merged phase-1 partial.
        """
        return FrequentScan(
            frequent_items,
            tuple(
                float(np.sum(sketch.frequencies(frequent_items)))
                for sketch in self._phase1_sketches(merged1, pairs1)
            ),
        )

    def phase2_partial(
        self,
        groups: Mapping[str, np.ndarray],
        pairs2: HashPairs,
        frequent_items: np.ndarray,
        rng: np.random.Generator,
        fingerprint: Mapping[str, object],
    ) -> "PartialAggregate":
        """Phase 2 of one shard: FAP reports against the broadcast ``FI``.

        Group 1 of each attribute targets the low-frequency values
        (``LA`` / ``LB``), group 2 the frequent ones (``HA`` / ``HB``);
        ``"{label}:raw"`` are the int64 accumulators under the shared
        phase-2 hash pairs (``Func sk`` of Algorithm 3).
        """
        partial = _partial(fingerprint, 2)
        for label, group, mode in _PHASE2:
            reports = fap_encode_reports(
                groups[group], mode, self.params, pairs2, frequent_items, rng
            )
            partial.add_array(f"{label}:raw", _accumulate(reports))
            partial.counters[f"{label}:num_reports"] = float(groups[group].size)
        return partial

    def finalize(
        self,
        merged1: "PartialAggregate",
        merged2: "PartialAggregate",
        pairs2: HashPairs,
        scan: FrequentScan,
        domain_size: int,
    ) -> EstimateResult:
        """Algorithm 5 over merged partials, for the users they cover.

        An attribute's covered population is its sample plus both
        phase-2 groups.  ``scan`` holds the broadcast ``FI`` and each
        attribute's sample-scale frequent mass.  The result carries both
        phases' uplink bits, the sketches' bytes, the six-group ledger
        and Algorithm 5's artefacts in ``extras``.
        """
        domain_size = require_positive_int("domain_size", domain_size)
        counters = merged1.counters
        sample_a = int(counters["SA:num_reports"])
        sample_b = int(counters["SB:num_reports"])
        size_a1, size_a2 = int(counters["A1:size"]), int(counters["A2:size"])
        size_b1, size_b2 = int(counters["B1:size"]), int(counters["B2:size"])
        covered_a = sample_a + size_a1 + size_a2
        covered_b = sample_b + size_b1 + size_b2

        # Population-scale frequent mass (Algorithm 5 lines 1-4), clipped
        # to the physically possible range.
        high_mass_a = self._population_mass(scan.masses[0], covered_a, sample_a)
        high_mass_b = self._population_mass(scan.masses[1], covered_b, sample_b)

        sketch_la, sketch_lb, sketch_ha, sketch_hb = (
            _sketch(merged2, label, self.params, pairs2) for label, _, _ in _PHASE2
        )
        low_est = self._join_est(
            sketch_la,
            sketch_lb,
            nt_mass_a=self._group_mass(high_mass_a, size_a1, covered_a),
            nt_mass_b=self._group_mass(high_mass_b, size_b1, covered_b),
        )
        high_est = self._join_est(
            sketch_ha,
            sketch_hb,
            nt_mass_a=self._group_mass(covered_a - high_mass_a, size_a2, covered_a),
            nt_mass_b=self._group_mass(covered_b - high_mass_b, size_b2, covered_b),
        )
        low_scaled = (covered_a * covered_b) / (size_a1 * size_b1) * low_est
        high_scaled = (covered_a * covered_b) / (size_a2 * size_b2) * high_est

        frequent_items = scan.items
        fi_bits = int(frequent_items.size) * max(1, int(np.ceil(np.log2(max(domain_size, 2)))))
        phase1 = self.phase1_params
        phase1_bits = phase1.report_bits * (sample_a + sample_b)
        phase2_bits = self.params.report_bits * (size_a1 + size_a2 + size_b1 + size_b2)
        ledger = BudgetLedger()
        for group in _LEDGER_GROUPS:
            ledger.charge(group, self.params.epsilon, "LDPJoinSketch+/FAP")
        ledger.assert_within(PrivacySpec(self.params.epsilon))
        return EstimateResult(
            estimate=low_scaled + high_scaled,
            uplink_bits=phase1_bits + phase2_bits,
            sketch_bytes=2 * phase1.k * phase1.m * 8 + 4 * self.params.k * self.params.m * 8,
            ledger=ledger,
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
    def _phase1_sketches(
        self, merged1: "PartialAggregate", pairs1: HashPairs
    ) -> Tuple[LDPJoinSketch, LDPJoinSketch]:
        return (
            _sketch(merged1, "SA", self.phase1_params, pairs1),
            _sketch(merged1, "SB", self.phase1_params, pairs1),
        )

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


def _partial(fingerprint: Mapping[str, object], round_: int) -> "PartialAggregate":
    from ..distributed.partial import PartialAggregate

    # The round travels in the fingerprint, so phase-1 and phase-2
    # partials never merge with each other.
    return PartialAggregate(PLUS_METHOD, {**fingerprint, "round": round_})


def _accumulate(reports: ReportBatch) -> np.ndarray:
    """The int64 pre-transform accumulator of one report batch."""
    raw = np.zeros((reports.params.k, reports.params.m), dtype=np.int64)
    scatter_add_signed_units(raw, (reports.rows, reports.cols), reports.ys)
    return raw


def _sketch(
    merged: "PartialAggregate", label: str, params: SketchParams, pairs: HashPairs
) -> LDPJoinSketch:
    return LDPJoinSketch.from_raw(
        params,
        pairs,
        merged.arrays[f"{label}:raw"],
        int(merged.counters[f"{label}:num_reports"]),
    )
