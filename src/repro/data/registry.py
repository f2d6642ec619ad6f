"""The dataset registry: one entry per Table II dataset.

Maps the paper's dataset names to generator factories with the Table II
domain sizes and stream lengths.  Experiments request scaled-down
instances via :func:`make_join_instance`: ``scale=0.005`` of the paper's
40M-row Zipf stream gives a 200k-row laptop workload with the same
population distribution — all estimators here are linear in the stream,
so error *ratios* between methods are preserved (see the README section
"Deviations from the paper").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import DataGenerationError
from ..rng import RandomState
from ..validation import require_positive_float
from .base import DataGenerator, JoinInstance
from .ego import EgoNetworkGenerator
from .gaussian import GaussianGenerator
from .movielens import MovieLensGenerator
from .tpcds import TPCDSStoreSalesGenerator
from .zipf import ZipfGenerator

__all__ = ["DatasetSpec", "DATASETS", "make_join_instance", "paper_dataset_table"]


@dataclass(frozen=True)
class DatasetSpec:
    """Registry entry: generator factory plus the paper's Table II shape."""

    name: str
    factory: Callable[[], DataGenerator]
    paper_domain: str
    paper_size: int

    def generator(self) -> DataGenerator:
        """Instantiate the population generator."""
        return self.factory()


#: The paper's evaluation datasets (Table II), keyed by canonical name.
#: ``zipf`` entries expose the skew in the name, matching figure captions.
DATASETS: Dict[str, DatasetSpec] = {
    "zipf-1.1": DatasetSpec(
        "zipf-1.1", lambda: ZipfGenerator(2**18, alpha=1.1), "4,377-2,816,390", 40_000_000
    ),
    "zipf-1.3": DatasetSpec(
        "zipf-1.3", lambda: ZipfGenerator(2**18, alpha=1.3), "4,377-2,816,390", 40_000_000
    ),
    "zipf-1.5": DatasetSpec(
        "zipf-1.5", lambda: ZipfGenerator(2**18, alpha=1.5), "4,377-2,816,390", 40_000_000
    ),
    "zipf-1.7": DatasetSpec(
        "zipf-1.7", lambda: ZipfGenerator(2**18, alpha=1.7), "4,377-2,816,390", 40_000_000
    ),
    "zipf-1.9": DatasetSpec(
        "zipf-1.9", lambda: ZipfGenerator(2**18, alpha=1.9), "4,377-2,816,390", 40_000_000
    ),
    "zipf-2.0": DatasetSpec(
        "zipf-2.0", lambda: ZipfGenerator(2**18, alpha=2.0), "4,377-2,816,390", 40_000_000
    ),
    "gaussian": DatasetSpec(
        "gaussian", lambda: GaussianGenerator(75_949), "75,949", 40_000_000
    ),
    "movielens": DatasetSpec(
        "movielens", lambda: MovieLensGenerator(83_239), "83,239", 67_664_324
    ),
    "tpcds": DatasetSpec(
        "tpcds", lambda: TPCDSStoreSalesGenerator(18_000), "18,000", 5_760_808
    ),
    "twitter": DatasetSpec(
        "twitter", EgoNetworkGenerator.twitter, "77,072", 4_841_532
    ),
    "facebook": DatasetSpec(
        "facebook", EgoNetworkGenerator.facebook, "4,039", 352_936
    ),
}


def make_join_instance(
    name: str,
    *,
    scale: float = 0.005,
    size: Optional[int] = None,
    seed: RandomState = None,
    mode: str = "independent",
) -> JoinInstance:
    """Build a (scaled) join workload for a registered dataset.

    Parameters
    ----------
    name:
        Registry key (``"zipf-1.5"``, ``"movielens"``, ...).
    scale:
        Fraction of the paper's stream length to draw (ignored when
        ``size`` is given).
    size:
        Explicit per-stream length override.
    seed:
        Randomness for the draw.
    mode:
        ``"independent"`` or ``"split"`` (see
        :meth:`DataGenerator.make_join_instance`).
    """
    try:
        spec = DATASETS[name]
    except KeyError:
        raise DataGenerationError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        ) from None
    if size is None:
        scale = require_positive_float("scale", scale)
        size = max(100, int(round(spec.paper_size * scale)))
    generator = spec.generator()
    instance = generator.make_join_instance(size, seed, mode=mode)
    instance.name = spec.name
    return instance


def paper_dataset_table(names: Optional[List[str]] = None) -> List[Tuple[str, str, int]]:
    """Rows of Table II: (dataset, paper domain, paper size)."""
    keys = names if names is not None else sorted(DATASETS)
    return [(DATASETS[k].name, DATASETS[k].paper_domain, DATASETS[k].paper_size) for k in keys]
