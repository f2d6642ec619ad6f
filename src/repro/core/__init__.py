"""The paper's primary contribution.

Public surface:

* :class:`SketchParams` — validated ``(k, m, epsilon)`` configuration;
* :func:`encode_report` / :func:`encode_reports` — Algorithm 1, the
  LDPJoinSketch client (scalar and vectorised forms);
* :class:`ReportBatch` — the wire format (``y``, row index, column index)
  plus communication-cost accounting;
* :class:`LDPJoinSketch` and :func:`build_sketch` — Algorithm 2 (PriSK),
  the server-side construction, with Eq. (5) join estimation and
  Theorem 7 frequency estimation;
* :func:`fap_encode_reports` — Algorithm 4, Frequency-Aware Perturbation;
* :class:`LDPJoinSketchPlus` — Algorithm 3 + Algorithm 5, the two-phase
  protocol, as phase steps over mergeable partials (its serial run and
  the sharded one execute the same steps); ``PlusEstimate`` is an alias
  of :class:`~repro.api.EstimateResult`;
* :class:`LDPCompassProtocol` — the Section VI multiway extension.

One-call drivers and the streaming aggregation surface live in
:mod:`repro.api` (``run_join_sketch``, ``run_join_sketch_plus``,
:class:`~repro.api.JoinSession`).
"""

from .params import SketchParams
from .client import (
    DEFAULT_CHUNK_SIZE,
    ReportBatch,
    encode_report,
    encode_reports,
    encode_reports_grouped_into,
    encode_reports_into,
    encode_reports_trials_into,
)
from .server import LDPJoinSketch, build_sketch
from .estimator import estimate_join_size, find_frequent_items
from .fap import fap_encode_report, fap_encode_reports
from .plus import LDPJoinSketchPlus, PlusEstimate
from .multiway import (
    LDPCompassProtocol,
    LDPMiddleSketch,
    MiddleReportBatch,
    finalize_middle_counts,
)

__all__ = [
    "SketchParams",
    "ReportBatch",
    "encode_report",
    "encode_reports",
    "encode_reports_into",
    "encode_reports_trials_into",
    "encode_reports_grouped_into",
    "DEFAULT_CHUNK_SIZE",
    "LDPJoinSketch",
    "build_sketch",
    "estimate_join_size",
    "find_frequent_items",
    "fap_encode_report",
    "fap_encode_reports",
    "LDPJoinSketchPlus",
    "PlusEstimate",
    "LDPCompassProtocol",
    "LDPMiddleSketch",
    "MiddleReportBatch",
    "finalize_middle_counts",
]
