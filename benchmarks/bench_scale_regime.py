"""The scale regime of LDPJoinSketch+ (honesty bench).

See "Scaled-down stream sizes" under README's "Deviations from the
paper" for why the benchmarks run below the paper's stream lengths.

The paper's headline improvement — LDPJoinSketch+ beating LDPJoinSketch —
lives in the regime where hash-collision error dominates LDP sampling
noise.  Collision error grows like the frequent items' joint mass while
the noise floor grows like sqrt(F1), so the crossover needs tens of
millions of clients (the paper uses 40M).  This bench sweeps the stream
size at fixed parameters and reports both protocols' REs, making the
regime boundary visible instead of hiding it.
"""

from __future__ import annotations

import numpy as np

from repro.api import run_join_sketch
from repro.core import LDPJoinSketchPlus, SketchParams
from repro.data import ZipfGenerator
from repro.experiments.reporting import ResultTable
from repro.join import exact_join_size

from conftest import RESULTS_DIR

SIZES = (100_000, 400_000, 1_600_000)
SEEDS = range(3)


def test_scale_regime(benchmark):
    generator = ZipfGenerator(2**18, alpha=1.1)
    params = SketchParams(k=18, m=1024, epsilon=4.0)

    def run():
        table = ResultTable(
            "Scale regime: LDPJoinSketch vs LDPJoinSketch+ on Zipf(1.1), eps=4",
            ["n_per_stream", "truth", "re_plain", "re_plus", "mean_fi_size"],
        )
        rng = np.random.default_rng(11)
        for n in SIZES:
            a = generator.sample(n, rng)
            b = generator.sample(n, rng)
            truth = exact_join_size(a, b, generator.domain_size)
            plus = LDPJoinSketchPlus(params, sample_rate=0.1, threshold=0.01)
            plain_errors, plus_errors, fi_sizes = [], [], []
            for seed in SEEDS:
                plain = run_join_sketch(a, b, params, seed=seed)
                plain_errors.append(abs(plain.estimate - truth) / truth)
                result = plus.estimate(a, b, generator.domain_size, rng=seed)
                plus_errors.append(abs(result.estimate - truth) / truth)
                fi_sizes.append(result.frequent_items.size)
            table.add_row(
                n,
                float(truth),
                float(np.mean(plain_errors)),
                float(np.mean(plus_errors)),
                float(np.mean(fi_sizes)),
            )
        table.add_note("plus/plain RE ratio should shrink as n grows (paper regime: 40M)")
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(table.to_text())
    table.to_csv(RESULTS_DIR / "scale_regime.csv")

    # Both protocols must converge (RE falls) as the stream grows.
    plain = table.column("re_plain")
    plus = table.column("re_plus")
    assert plain[-1] < plain[0]
    assert plus[-1] < plus[0]
