"""Synthetic workload generators matching the paper's datasets.

The paper evaluates on Zipf and Gaussian synthetic data plus four
real-world datasets (TPC-DS store sales, MovieLens, Twitter and Facebook
ego networks).  The real datasets are downloads we do not have offline, so
each is substituted by a generator reproducing the behaviour-relevant
properties — the join-attribute *marginal distribution* (skew) and the
domain size of Table II — as documented in the README section
"Deviations from the paper".  All generators are seeded and
scale-invariant: ``sample(size, rng)`` draws any number of values from
the same population distribution.
"""

from .base import DataGenerator, JoinInstance, sample_from_pmf
from .zipf import ZipfGenerator
from .gaussian import GaussianGenerator
from .tpcds import TPCDSStoreSalesGenerator
from .movielens import MovieLensGenerator
from .ego import EgoNetworkGenerator
from .registry import DATASETS, DatasetSpec, make_join_instance, paper_dataset_table

__all__ = [
    "DataGenerator",
    "JoinInstance",
    "sample_from_pmf",
    "ZipfGenerator",
    "GaussianGenerator",
    "TPCDSStoreSalesGenerator",
    "MovieLensGenerator",
    "EgoNetworkGenerator",
    "DATASETS",
    "DatasetSpec",
    "make_join_instance",
    "paper_dataset_table",
]
