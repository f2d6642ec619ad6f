"""Ablations of two documented deviations (README, "Deviations from the paper").

1. **Non-target mass scaling** (Algorithm 5): the paper subtracts the
   *population*-scale frequent mass from sketches built by a single user
   *group*; we default to group-scaled mass.  This bench measures both.
2. **Frequent-item detection read-out**: the paper's Theorem 7 mean
   estimator vs our default collision-robust median read-out of the same
   sketch.  The mean read-out admits collision-inflated false positives
   whose selection bias corrupts the frequent-mass estimate.

Both ablations run LDPJoinSketch+ on a planted heavy-hitter workload where
the effects are visible, and print AE plus the frequent-item set size per
variant.
"""

from __future__ import annotations

import numpy as np

from repro.core import LDPJoinSketchPlus, SketchParams
from repro.experiments.reporting import ResultTable
from repro.join import exact_join_size

from conftest import RESULTS_DIR

SEEDS = range(4)


def _workload():
    rng = np.random.default_rng(77)
    domain = 4096
    heavy = np.repeat(np.array([5, 99, 1203], dtype=np.int64), 40_000)
    a = np.concatenate([heavy, rng.integers(0, domain, size=150_000)])
    b = np.concatenate([heavy, rng.integers(0, domain, size=150_000)])
    return a, b, domain


def _run_variant(a, b, domain, truth, **plus_kwargs):
    params = SketchParams(k=18, m=512, epsilon=4.0)
    protocol = LDPJoinSketchPlus(params, sample_rate=0.2, threshold=0.05, **plus_kwargs)
    errors, fi_sizes = [], []
    for seed in SEEDS:
        result = protocol.estimate(a, b, domain, rng=seed)
        errors.append(abs(result.estimate - truth))
        fi_sizes.append(result.frequent_items.size)
    return float(np.mean(errors)), float(np.mean(fi_sizes))


def test_ablation_corrections(benchmark):
    a, b, domain = _workload()
    truth = exact_join_size(a, b, domain)

    def run():
        table = ResultTable(
            "Ablation: Algorithm 5 corrections (planted 3-heavy-hitter workload)",
            ["variant", "ae", "re", "mean_fi_size"],
        )
        variants = {
            "group-scaled mass + median FI (default)": {},
            "paper-verbatim mass scaling": {"paper_faithful_correction": True},
            "paper-verbatim mean FI detection": {"fi_method": "mean"},
        }
        for name, kwargs in variants.items():
            ae, fi = _run_variant(a, b, domain, truth, **kwargs)
            table.add_row(name, ae, ae / truth, fi)
        table.add_note(f"truth = {truth}")
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(table.to_text())
    table.to_csv(RESULTS_DIR / "ablation_corrections.csv")

    rows = {row[0]: row for row in table.rows}
    default_ae = rows["group-scaled mass + median FI (default)"][1]
    verbatim_ae = rows["paper-verbatim mass scaling"][1]
    # The verbatim population-scale subtraction over-corrects group-built
    # sketches; the group-scaled default must not be worse.
    assert default_ae <= verbatim_ae
