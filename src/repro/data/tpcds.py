"""Synthetic TPC-DS ``store_sales`` join-attribute workload.

The paper extracts the store-sales fact table of TPC-DS (Table II: domain
18,000 — the item dimension at their scale factor — and 5.76M rows) and
joins on the item key.  Offline we substitute a generator reproducing the
relevant structure of TPC-DS item sales:

* item popularity in TPC-DS is piecewise-skewed (a moderate head of
  fast-selling items over a wide body), which we model as a mixture of a
  lognormal popularity head and a uniform body;
* the mixture weights/shape below were chosen so the frequency histogram
  has the moderate skew of store-sales item keys — far flatter than
  Zipf(1.5), far from uniform.

The README section "Deviations from the paper" records this
substitution; the estimators only see the marginal distribution of the
join key, so this preserves the experiment behaviour.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..rng import ensure_rng
from ..validation import require_probability, require_positive_float
from .base import DataGenerator

__all__ = ["TPCDSStoreSalesGenerator"]


class TPCDSStoreSalesGenerator(DataGenerator):
    """Item-key population mimicking TPC-DS ``store_sales`` skew."""

    name = "tpcds"

    def __init__(
        self,
        domain_size: int = 18_000,
        *,
        head_fraction: float = 0.3,
        lognormal_sigma: float = 1.2,
        weights_seed: int = 20240511,
    ) -> None:
        super().__init__(domain_size)
        self.head_fraction = require_probability("head_fraction", head_fraction)
        self.lognormal_sigma = require_positive_float("lognormal_sigma", lognormal_sigma)
        self.weights_seed = int(weights_seed)
        self._pmf: Optional[np.ndarray] = None

    def pmf(self) -> np.ndarray:
        """Lognormal head + uniform body mixture (fixed by ``weights_seed``)."""
        if self._pmf is None:
            rng = ensure_rng(self.weights_seed)
            # Popularity head: lognormal multipliers on every item.
            head = rng.lognormal(mean=0.0, sigma=self.lognormal_sigma, size=self.domain_size)
            head /= head.sum()
            body = np.full(self.domain_size, 1.0 / self.domain_size)
            pmf = self.head_fraction * head + (1.0 - self.head_fraction) * body
            self._pmf = pmf / pmf.sum()
        return self._pmf
