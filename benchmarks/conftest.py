"""Shared infrastructure for the benchmark suite.

Every benchmark regenerates one table/figure of the paper at laptop scale:
it runs the corresponding :mod:`repro.experiments.figures` function once
under ``benchmark.pedantic`` (the interesting measurements live *inside*
the experiment — estimator accuracy and timing — so wall-clock repetition
adds nothing), prints the regenerated table, and writes a CSV next to the
other results in ``benchmarks/results/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Default workload fraction of the paper's stream sizes (see the README
#: section "Deviations from the paper").
BENCH_SCALE = 0.002
#: Default repetitions per configuration.
BENCH_TRIALS = 2
#: Master seed for every benchmark.
BENCH_SEED = 20240101


@pytest.fixture
def regenerate(benchmark):
    """Run a figure function once, print and persist its table."""

    def _run(name: str, func, **kwargs):
        table = benchmark.pedantic(lambda: func(**kwargs), rounds=1, iterations=1)
        print()
        print(table.to_text())
        path = table.to_csv(RESULTS_DIR / f"{name}.csv")
        print(f"[csv] {path}")
        return table

    return _run
