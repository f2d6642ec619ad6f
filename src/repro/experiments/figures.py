"""One experiment function per table/figure of the paper's evaluation.

Every function returns a :class:`~repro.experiments.reporting.ResultTable`
containing exactly the series the paper plots (plus the ground truth the
reader needs to judge shape).  Defaults reproduce the paper's parameter
settings at laptop scale; the ``scale`` argument controls the fraction of
the paper's stream lengths drawn from each population (see the README
section "Deviations from the paper" for why shapes are preserved under
scaling, and for the substituted datasets).

Index:

========  =================================================================
table2    dataset inventory
fig5      join-size RE per method per dataset (eps=4, k=18, m=1024)
fig6      AE vs space cost (Zipf 2.0, eps=10)
fig7      communication cost per method (Zipf 1.1, MovieLens)
fig8      AE vs privacy budget eps (4 datasets)
fig9      AE vs sketch width m and depth k (4 datasets)
fig10     AE vs phase-1 sampling rate r (Zipf 1.1)
fig11     AE vs frequent-item threshold theta (Zipf 1.1)
fig12     RE vs Zipf skewness alpha
fig13     offline/online running time per method (3 datasets)
fig14     frequency-estimation MSE vs eps (Zipf 1.5, MovieLens)
fig15     multiway chain joins: RE vs eps (3-way and 4-way)
========  =============================================================
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..data import ZipfGenerator, make_join_instance
from ..data.registry import DATASETS
from ..mechanisms import (
    FLHOracle,
    HCMSOracle,
    KRROracle,
    LDPJoinSketchOracle,
)
from ..rng import derive_seed, ensure_rng
from .chains import (
    compass_estimate,
    frequency_chain_estimate,
    ldp_compass_estimate,
    make_chain_instance,
)
from .harness import run_trials, summarize
from ..api import get_estimator
from ..api.registry import JoinEstimator
from .methods import default_methods
from .metrics import mean_squared_error
from .reporting import ResultTable
from .sweep import iter_sweep, plan_grid

__all__ = [
    "table2_datasets",
    "fig5_accuracy",
    "fig6_space",
    "fig7_communication",
    "fig8_epsilon",
    "fig9_sketch_size",
    "fig10_sampling_rate",
    "fig11_threshold",
    "fig12_skewness",
    "fig13_efficiency",
    "fig14_frequency",
    "fig15_multiway",
    "ALL_EXPERIMENTS",
]

#: Datasets shown in Fig. 5 (the full Table II line-up).
FIG5_DATASETS = ("zipf-1.1", "gaussian", "movielens", "tpcds", "twitter", "facebook")


def table2_datasets(scale: float = 0.002, seed: int = 2024) -> ResultTable:
    """Table II: the dataset inventory, paper shape vs generated shape."""
    table = ResultTable(
        "Table II: datasets (paper shape vs laptop-scale sample)",
        [
            "dataset",
            "paper_domain",
            "paper_size",
            "our_domain",
            "sample_size",
            "distinct",
            "top1_share",
        ],
    )
    rng = ensure_rng(seed)
    for name in FIG5_DATASETS:
        spec = DATASETS[name]
        instance = make_join_instance(name, scale=scale, seed=derive_seed(rng))
        freq = instance.frequency_a
        table.add_row(
            name,
            spec.paper_domain,
            spec.paper_size,
            instance.domain_size,
            instance.size_a,
            freq.distinct,
            float(freq.counts.max() / max(freq.total, 1)),
        )
    table.add_note("zipf domain scaled to 2^18 for laptop runs (paper: up to 2.8M)")
    return table


def _accuracy_sweep(
    title: str,
    datasets: Sequence[str],
    methods: Dict[str, JoinEstimator],
    epsilons: Sequence[float],
    *,
    scale: float,
    trials: int,
    seed: int,
    metric_headers: Sequence[str] = ("ae", "re"),
    workers: int = 1,
    trial_axis: str = "exact",
) -> ResultTable:
    """Shared driver: (dataset x method x epsilon) accuracy grid.

    Routed through the sweep engine (:mod:`repro.experiments.sweep`):
    the grid is expanded into a deterministic plan whose seeds derive in
    the historical order, so ``workers=1`` reproduces the legacy serial
    loop bit for bit and any ``workers`` count reproduces ``workers=1``.
    """
    table = ResultTable(
        title,
        ["dataset", "method", "epsilon", "truth", "mean_estimate", *metric_headers],
    )
    plan = plan_grid(
        datasets, methods, epsilons, trials, scale=scale, seed=seed, trial_axis=trial_axis
    )
    for unit, records in iter_sweep(plan, workers=workers):
        for epsilon in unit.epsilons:
            stats = summarize([r for r in records if r.epsilon == epsilon])
            table.add_row(
                unit.dataset,
                unit.method,
                float(epsilon),
                stats["truth"],
                stats["mean_estimate"],
                *[stats[h] for h in metric_headers],
            )
    return table


def fig5_accuracy(
    scale: float = 0.002,
    trials: int = 3,
    seed: int = 2024,
    *,
    epsilon: float = 4.0,
    k: int = 18,
    m: int = 1024,
    datasets: Sequence[str] = FIG5_DATASETS,
    workers: int = 1,
) -> ResultTable:
    """Fig. 5: join-size RE of all six methods on all six datasets."""
    methods = default_methods(k, m)
    table = _accuracy_sweep(
        "Fig. 5: join-size estimation accuracy (RE) per dataset",
        datasets,
        methods,
        [epsilon],
        scale=scale,
        trials=trials,
        seed=seed,
        workers=workers,
    )
    table.add_note(f"paper setting: epsilon={epsilon}, (k={k}, m={m})")
    return table


def fig6_space(
    scale: float = 0.002,
    trials: int = 3,
    seed: int = 2024,
    *,
    epsilon: float = 10.0,
    k: int = 18,
    widths: Sequence[int] = (256, 512, 1024, 2048, 4096),
    sample_rate: float = 0.1,
    threshold: float = 0.01,
    workers: int = 1,
) -> ResultTable:
    """Fig. 6: AE vs total sketch space on Zipf(2.0).

    Space cost per the paper: HCMS and LDPJoinSketch hold one sketch per
    table; LDPJoinSketch+ holds the phase-1 pair plus four phase-2
    sketches (same size in both phases), so its phase-2 space is roughly
    twice phase 1's.
    """
    table = ResultTable(
        "Fig. 6: AE vs space cost, Zipf(alpha=2.0)",
        ["method", "m", "space_kb", "truth", "ae"],
    )
    rng = ensure_rng(seed)
    instance = make_join_instance("zipf-2.0", scale=scale, seed=derive_seed(rng))
    for m in widths:
        methods: List[JoinEstimator] = [
            get_estimator("hcms", k=k, m=m),
            get_estimator("ldp-join-sketch", k=k, m=m),
            get_estimator(
                "ldp-join-sketch-plus",
                k=k,
                m=m,
                sample_rate=sample_rate,
                threshold=threshold,
            ),
        ]
        for method in methods:
            records = run_trials(
                method, instance, epsilon, trials, derive_seed(rng), workers=workers
            )
            stats = summarize(records)
            table.add_row(
                method.name,
                int(m),
                stats["sketch_bytes"] / 1024.0,
                stats["truth"],
                stats["ae"],
            )
    table.add_note(f"paper setting: epsilon={epsilon}, r={sample_rate}, theta={threshold}")
    return table


def fig7_communication(
    scale: float = 0.002,
    seed: int = 2024,
    *,
    epsilon: float = 4.0,
    k: int = 18,
    m: int = 1024,
    datasets: Sequence[str] = ("zipf-1.1", "movielens"),
) -> ResultTable:
    """Fig. 7: total uplink bits per method."""
    table = ResultTable(
        "Fig. 7: communication cost (total uplink bits)",
        ["dataset", "method", "clients", "bits_per_report", "total_bits"],
    )
    rng = ensure_rng(seed)
    methods: List[JoinEstimator] = [
        get_estimator("krr"),
        get_estimator("hcms", k=k, m=m),
        get_estimator("flh"),
        get_estimator("ldp-join-sketch", k=k, m=m),
    ]
    for dataset in datasets:
        instance = make_join_instance(dataset, scale=scale, seed=derive_seed(rng))
        clients = instance.size_a + instance.size_b
        for method in methods:
            bits = method.report_bits_for(instance.domain_size, epsilon)
            table.add_row(dataset, method.name, clients, bits, clients * bits)
    table.add_note(f"paper setting: epsilon={epsilon}, (k={k}, m={m})")
    return table


def fig8_epsilon(
    scale: float = 0.002,
    trials: int = 3,
    seed: int = 2024,
    *,
    epsilons: Sequence[float] = (0.1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    k: int = 18,
    m: int = 1024,
    datasets: Sequence[str] = ("zipf-1.5", "gaussian", "movielens", "twitter"),
    workers: int = 1,
) -> ResultTable:
    """Fig. 8 (a-d): AE vs privacy budget epsilon."""
    methods = default_methods(k, m)
    table = _accuracy_sweep(
        "Fig. 8: AE vs privacy budget epsilon",
        datasets,
        methods,
        epsilons,
        scale=scale,
        trials=trials,
        seed=seed,
        workers=workers,
    )
    table.add_note(f"paper setting: (k={k}, m={m}); one panel per dataset")
    return table


def fig9_sketch_size(
    scale: float = 0.002,
    trials: int = 3,
    seed: int = 2024,
    *,
    epsilon: float = 10.0,
    widths: Sequence[int] = (512, 1024, 2048, 4096, 8192),
    depths: Sequence[int] = (9, 12, 18, 21, 28, 30, 36),
    fixed_k: int = 18,
    fixed_m: int = 1024,
    sample_rate: float = 0.1,
    threshold: float = 0.01,
    datasets: Sequence[str] = ("zipf-1.1", "zipf-2.0", "movielens", "twitter"),
    workers: int = 1,
) -> ResultTable:
    """Fig. 9: AE vs sketch width m (a-d) and depth k (e-h)."""
    table = ResultTable(
        "Fig. 9: AE vs sketch parameters (m sweep with k fixed; k sweep with m fixed)",
        ["dataset", "sweep", "k", "m", "method", "truth", "ae"],
    )
    rng = ensure_rng(seed)

    def sketch_methods(k: int, m: int) -> List[JoinEstimator]:
        return [
            get_estimator("fagms", k=k, m=m),
            get_estimator("hcms", k=k, m=m),
            get_estimator("ldp-join-sketch", k=k, m=m),
            get_estimator(
                "ldp-join-sketch-plus",
                k=k,
                m=m,
                sample_rate=sample_rate,
                threshold=threshold,
            ),
        ]

    for dataset in datasets:
        instance = make_join_instance(dataset, scale=scale, seed=derive_seed(rng))
        for m in widths:
            for method in sketch_methods(fixed_k, m):
                records = run_trials(
                    method, instance, epsilon, trials, derive_seed(rng), workers=workers
                )
                stats = summarize(records)
                table.add_row(dataset, "m", fixed_k, int(m), method.name, stats["truth"], stats["ae"])
        for k in depths:
            for method in sketch_methods(k, fixed_m):
                records = run_trials(
                    method, instance, epsilon, trials, derive_seed(rng), workers=workers
                )
                stats = summarize(records)
                table.add_row(dataset, "k", int(k), fixed_m, method.name, stats["truth"], stats["ae"])
    table.add_note(f"paper setting: epsilon={epsilon}, r={sample_rate}")
    return table


def fig10_sampling_rate(
    scale: float = 0.002,
    trials: int = 5,
    seed: int = 2024,
    *,
    epsilon: float = 4.0,
    k: int = 18,
    m: int = 1024,
    rates: Sequence[float] = (0.10, 0.15, 0.20, 0.25, 0.30),
    threshold: float = 0.01,
    workers: int = 1,
) -> ResultTable:
    """Fig. 10: LDPJoinSketch+ AE vs phase-1 sampling rate r on Zipf(1.1)."""
    table = ResultTable(
        "Fig. 10: AE vs phase-1 sampling rate r, Zipf(alpha=1.1)",
        ["r", "truth", "ae"],
    )
    rng = ensure_rng(seed)
    instance = make_join_instance("zipf-1.1", scale=scale, seed=derive_seed(rng))
    for rate in rates:
        method = get_estimator(
            "ldp-join-sketch-plus", k=k, m=m, sample_rate=rate, threshold=threshold
        )
        records = run_trials(
            method, instance, epsilon, trials, derive_seed(rng), workers=workers
        )
        stats = summarize(records)
        table.add_row(float(rate), stats["truth"], stats["ae"])
    table.add_note(f"paper setting: epsilon={epsilon}, (k={k}, m={m}), theta={threshold}")
    return table


def fig11_threshold(
    scale: float = 0.002,
    trials: int = 5,
    seed: int = 2024,
    *,
    epsilon: float = 4.0,
    k: int = 18,
    m: int = 1024,
    thresholds: Sequence[float] = (5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1),
    sample_rate: float = 0.1,
) -> ResultTable:
    """Fig. 11: LDPJoinSketch+ AE vs frequent-item threshold theta."""
    table = ResultTable(
        "Fig. 11: AE vs frequent-item threshold theta, Zipf(alpha=1.1)",
        ["theta", "truth", "ae", "fi_size"],
    )
    rng = ensure_rng(seed)
    instance = make_join_instance("zipf-1.1", scale=scale, seed=derive_seed(rng))
    from ..core import LDPJoinSketchPlus, SketchParams  # local import to avoid cycle

    for theta in thresholds:
        protocol = LDPJoinSketchPlus(
            SketchParams(k, m, epsilon), sample_rate=sample_rate, threshold=theta
        )
        estimates = []
        fi_sizes = []
        for _ in range(trials):
            result = protocol.estimate(
                instance.values_a, instance.values_b, instance.domain_size, derive_seed(rng)
            )
            estimates.append(result.estimate)
            fi_sizes.append(result.frequent_items.size)
        truth = float(instance.true_join_size)
        table.add_row(
            float(theta),
            truth,
            float(np.mean(np.abs(np.asarray(estimates) - truth))),
            float(np.mean(fi_sizes)),
        )
    table.add_note(f"paper setting: epsilon={epsilon}, (k={k}, m={m}), r={sample_rate}")
    return table


def fig12_skewness(
    scale: float = 0.002,
    trials: int = 3,
    seed: int = 2024,
    *,
    epsilon: float = 4.0,
    k: int = 18,
    m: int = 1024,
    alphas: Sequence[float] = (1.1, 1.3, 1.5, 1.7, 1.9),
    workers: int = 1,
) -> ResultTable:
    """Fig. 12: RE vs Zipf skewness alpha, all six methods."""
    methods = default_methods(k, m)
    datasets = [f"zipf-{alpha}" for alpha in alphas]
    table = _accuracy_sweep(
        "Fig. 12: RE vs Zipf skewness alpha",
        datasets,
        methods,
        [epsilon],
        scale=scale,
        trials=trials,
        seed=seed,
        workers=workers,
    )
    table.add_note(f"paper setting: epsilon={epsilon}, (k={k}, m={m})")
    return table


def fig13_efficiency(
    scale: float = 0.002,
    trials: int = 3,
    seed: int = 2024,
    *,
    epsilon: float = 4.0,
    k: int = 18,
    m: int = 1024,
    datasets: Sequence[str] = ("zipf-1.1", "gaussian", "twitter"),
    workers: int = 1,
) -> ResultTable:
    """Fig. 13: offline (collect + construct) vs online (query) seconds."""
    table = ResultTable(
        "Fig. 13: running time per method (offline = collection + construction, online = query)",
        ["dataset", "method", "offline_seconds", "online_seconds"],
    )
    rng = ensure_rng(seed)
    methods = default_methods(k, m)
    for dataset in datasets:
        instance = make_join_instance(dataset, scale=scale, seed=derive_seed(rng))
        for method in methods.values():
            # vectorize=False: this figure *is* the timing measurement, so
            # each trial must pay (and report) one full collect+construct
            # run rather than an evenly split shared batch.
            records = run_trials(
                method,
                instance,
                epsilon,
                trials,
                derive_seed(rng),
                workers=workers,
                vectorize=False,
            )
            stats = summarize(records)
            table.add_row(dataset, method.name, stats["offline_seconds"], stats["online_seconds"])
    return table


def fig14_frequency(
    scale: float = 0.002,
    trials: int = 2,
    seed: int = 2024,
    *,
    epsilons: Sequence[float] = (0.5, 1, 2, 4, 6, 8, 10),
    k: int = 18,
    m: int = 1024,
    datasets: Sequence[str] = ("zipf-1.5", "movielens"),
) -> ResultTable:
    """Fig. 14: frequency-estimation MSE vs epsilon.

    MSE is computed over the distinct values appearing in the stream, per
    the paper's metric definition.
    """
    table = ResultTable(
        "Fig. 14: frequency-estimation MSE vs epsilon",
        ["dataset", "mechanism", "epsilon", "mse"],
    )
    rng = ensure_rng(seed)
    oracle_factories = {
        "k-RR": lambda d, e, s: KRROracle(d, e, s),
        "Apple-HCMS": lambda d, e, s: HCMSOracle(d, e, s, k=k, m=m),
        "FLH": lambda d, e, s: FLHOracle(d, e, s),
        "LDPJoinSketch": lambda d, e, s: LDPJoinSketchOracle(d, e, s, k=k, m=m),
    }
    for dataset in datasets:
        instance = make_join_instance(dataset, scale=scale, seed=derive_seed(rng))
        freq = instance.frequency_a
        support = np.flatnonzero(freq.counts)
        true_counts = freq.counts[support].astype(np.float64)
        for name, factory in oracle_factories.items():
            for epsilon in epsilons:
                mses = []
                for _ in range(trials):
                    oracle = factory(instance.domain_size, float(epsilon), derive_seed(rng))
                    oracle.collect(instance.values_a)
                    mses.append(
                        mean_squared_error(true_counts, oracle.frequencies(support))
                    )
                table.add_row(dataset, name, float(epsilon), float(np.mean(mses)))
    table.add_note("MSE over distinct values of the stream (paper metric)")
    return table


def fig15_multiway(
    scale: float = 0.002,
    trials: int = 3,
    seed: int = 2024,
    *,
    epsilons: Sequence[float] = (0.1, 1, 2, 4, 6, 8, 10),
    k: int = 18,
    m: int = 256,
    domain: int = 2048,
    alpha: float = 1.5,
    flh_pool_size: int = 64,
) -> ResultTable:
    """Fig. 15: multiway chain joins, RE vs epsilon.

    3-way chains are evaluated with all methods; 4-way chains only with
    Compass and LDPJoinSketch (the frequency-based methods' product-domain
    cost is prohibitive — the paper makes the same cut).  The per-attribute
    domain is chosen so the middle table's *product* domain (``domain^2``)
    is far larger than the sketch width — the paper's large-domain regime
    where frequency-vector baselines accumulate error.
    """
    table = ResultTable(
        "Fig. 15: multiway chain joins, RE vs epsilon, Zipf(alpha=1.5)",
        ["query", "method", "epsilon", "truth", "mean_estimate", "re"],
    )
    rng = ensure_rng(seed)
    generator = ZipfGenerator(domain, alpha=alpha)
    table_size = max(1000, int(round(40_000_000 * scale / 4)))

    def add(query: str, method: str, epsilon: float, truth: float, estimates: List[float]) -> None:
        mean_est = float(np.mean(estimates))
        re = float(np.mean(np.abs(np.asarray(estimates) - truth)) / truth)
        table.add_row(query, method, float(epsilon), truth, mean_est, re)

    freq_baselines = {
        "k-RR": (KRROracle, {}),
        "Apple-HCMS": (HCMSOracle, {"k": k, "m": m}),
        "FLH": (FLHOracle, {"pool_size": flh_pool_size}),
    }

    for num_way in (3, 4):
        chain = make_chain_instance(num_way, generator, table_size, derive_seed(rng))
        truth = float(chain.true_size)
        query = f"{num_way}-way"

        estimates = [
            compass_estimate(chain, k, m, derive_seed(rng)) for _ in range(trials)
        ]
        add(query, "Compass", 0.0, truth, estimates)

        for epsilon in epsilons:
            estimates = [
                ldp_compass_estimate(chain, k, m, float(epsilon), derive_seed(rng))
                for _ in range(trials)
            ]
            add(query, "LDPJoinSketch", float(epsilon), truth, estimates)

        if num_way == 3:
            for name, (oracle_cls, kwargs) in freq_baselines.items():
                for epsilon in epsilons:
                    estimates = [
                        frequency_chain_estimate(
                            oracle_cls, chain, float(epsilon), derive_seed(rng), **kwargs
                        )
                        for _ in range(trials)
                    ]
                    add(query, name, float(epsilon), truth, estimates)
    table.add_note(
        f"domain={domain} per attribute (product domain {domain * domain} for "
        "frequency baselines); Compass rows report epsilon=0 (non-private)"
    )
    return table


#: Name -> callable registry used by the CLI and the benchmark suite.
ALL_EXPERIMENTS = {
    "table2": table2_datasets,
    "fig5": fig5_accuracy,
    "fig6": fig6_space,
    "fig7": fig7_communication,
    "fig8": fig8_epsilon,
    "fig9": fig9_sketch_size,
    "fig10": fig10_sampling_rate,
    "fig11": fig11_threshold,
    "fig12": fig12_skewness,
    "fig13": fig13_efficiency,
    "fig14": fig14_frequency,
    "fig15": fig15_multiway,
}
