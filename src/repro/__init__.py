"""repro — Sketches-based join size estimation under local differential privacy.

A from-scratch, laptop-scale reproduction of *"Sketches-based join size
estimation under local differential privacy"* (Zhang, Liu, Yin — ICDE
2024), grown around one idea the paper makes precise: a single private
sketch answers join-size, frequency and multiway queries.  The package
serves them through one interface:

* the **unified API** (:mod:`repro.api`) — the estimator registry
  (:func:`get_estimator` / :func:`available_estimators` over
  LDPJoinSketch, LDPJoinSketch+/FAP, LDP-COMPASS, FAGMS and the k-RR /
  OLH / FLH / Apple-HCMS baselines), the streaming shardable
  :class:`JoinSession`, and the single frozen :class:`EstimateResult`
  every query returns;
* the paper's contributions (:mod:`repro.core`) —
  :class:`~repro.core.LDPJoinSketch` / :func:`~repro.core.build_sketch`
  (Algorithms 1-2), Frequency-Aware Perturbation (Algorithm 4),
  :class:`~repro.core.LDPJoinSketchPlus` (Algorithms 3 and 5), and the
  Section VI multiway extension (:class:`~repro.core.LDPCompassProtocol`);
* every substrate they stand on — Hadamard transforms, k-wise independent
  hashing, the classical AGMS and Fast-AGMS sketches, the Count-Mean
  read-out and COMPASS chain sketches;
* the competitor LDP frequency oracles of the evaluation, with mergeable
  (shardable) server-side state, under one interface
  (:mod:`repro.mechanisms`);
* synthetic workload generators matching the paper's datasets
  (:mod:`repro.data`) and the experiment harness regenerating every table
  and figure through the registry (:mod:`repro.experiments`).

Quickstart::

    import numpy as np
    from repro import JoinSession, SketchParams

    rng = np.random.default_rng(7)
    session = JoinSession(SketchParams(k=18, m=1024, epsilon=4.0), seed=7)
    session.collect("A", rng.integers(0, 4096, size=100_000))
    session.collect("B", rng.integers(0, 4096, size=100_000))
    print(session.estimate().estimate)

or, by registry name::

    from repro.api import get_estimator
    from repro.data import ZipfGenerator

    instance = ZipfGenerator(4096, alpha=1.4).make_join_instance(100_000, rng=1)
    result = get_estimator("ldpjs+").estimate(instance, epsilon=4.0, seed=7)
    print(result.estimate, result.uplink_bits)
"""

from ._version import __version__
from .errors import (
    BackendUnavailableError,
    DataGenerationError,
    DomainError,
    IncompatibleSketchError,
    ParameterError,
    ProtocolError,
    ReproError,
    UnknownEstimatorError,
)
from .backend import (
    Backend,
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from .api import (
    EstimateResult,
    JoinSession,
    available_estimators,
    get_estimator,
    register,
)
from .core import (
    LDPCompassProtocol,
    LDPJoinSketch,
    LDPJoinSketchPlus,
    PlusEstimate,
    ReportBatch,
    SketchParams,
    build_sketch,
    encode_report,
    encode_reports,
    encode_reports_into,
    estimate_join_size,
    fap_encode_report,
    fap_encode_reports,
    find_frequent_items,
)
from .join import FrequencyVector, exact_join_size, exact_multiway_chain_size

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ParameterError",
    "DomainError",
    "IncompatibleSketchError",
    "ProtocolError",
    "DataGenerationError",
    "UnknownEstimatorError",
    "BackendUnavailableError",
    # compute backends
    "Backend",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    # unified API
    "EstimateResult",
    "JoinSession",
    "get_estimator",
    "available_estimators",
    "register",
    # core protocol
    "SketchParams",
    "ReportBatch",
    "encode_report",
    "encode_reports",
    "encode_reports_into",
    "LDPJoinSketch",
    "build_sketch",
    "estimate_join_size",
    "find_frequent_items",
    "fap_encode_report",
    "fap_encode_reports",
    "LDPJoinSketchPlus",
    "PlusEstimate",
    "LDPCompassProtocol",
    # ground truth
    "FrequencyVector",
    "exact_join_size",
    "exact_multiway_chain_size",
]
