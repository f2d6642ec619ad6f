"""Deterministic client-population sharding.

A production collection period ingests through many aggregators, not one
process: the client population is split into ``K`` shards, each shard's
aggregator folds its cohort into a :class:`~repro.distributed.PartialAggregate`,
and a merge tree reduces the partials back into the coordinator's state.
The split must be a *pure function* of the plan — never of scheduling —
so that any execution (serial, process pool, different machines) produces
byte-identical results.  :class:`ShardPlanner` owns exactly that
determinism:

* **partitioning** is hash- or range-based and depends only on the
  values (hash) or their order (range), never on randomness;
* **per-shard seeds** derive from the planner's master seed in shard
  order, so shard ``s`` draws the same perturbation randomness no matter
  where or when it runs;
* **K = 1 is the identity**: the single shard receives the population
  unchanged and the master seed *itself* (no derivation step), so a
  one-shard plan reproduces today's single-aggregator figures bit for
  bit.

The planner deliberately does not touch the privacy analysis: shards are
disjoint user groups, so per-shard collection composes in parallel
exactly like the per-cohort ``collect`` calls it replaces.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..errors import ParameterError
from ..rng import RandomState, derive_seed, ensure_rng
from ..validation import require_positive_int

__all__ = ["ShardPlanner", "SHARD_STRATEGIES"]

#: Multiplier/increment of the value-hash partition, then splitmix64's
#: finaliser multipliers (fixed so hash plans are stable across runs and
#: machines).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_HASH_INCREMENT = np.uint64(0xD1B54A32D192ED03)
_FINAL_1 = np.uint64(0xBF58476D1CE4E5B9)
_FINAL_2 = np.uint64(0x94D049BB133111EB)

SHARD_STRATEGIES = ("hash", "range")


class ShardPlanner:
    """Split client populations into ``K`` deterministic shards.

    Parameters
    ----------
    num_shards:
        Shard count ``K``.
    strategy:
        ``"hash"`` routes each client by a fixed mix of its *value*
        (clients holding the same value always land on the same shard,
        whatever order they arrive in); ``"range"`` cuts the population
        into ``K`` near-equal contiguous blocks (balanced shard sizes,
        order-dependent).  Both preserve the within-shard client order.
    seed:
        Master seed of the per-shard randomness.  ``shard_seeds()`` is a
        pure function of it: shard ``s`` always receives the same seed,
        so a shard can be re-run (or resumed after a crash) bit for bit.
        ``None`` means the caller supplies generators itself (e.g. a
        :class:`~repro.api.JoinSession` using its session stream for the
        ``K = 1`` identity plan).
    """

    def __init__(
        self,
        num_shards: int,
        *,
        strategy: str = "hash",
        seed: RandomState = None,
    ) -> None:
        self.num_shards = require_positive_int("num_shards", num_shards)
        if strategy not in SHARD_STRATEGIES:
            raise ParameterError(
                f"strategy must be one of {SHARD_STRATEGIES}, got {strategy!r}"
            )
        self.strategy = strategy
        if seed is not None and not isinstance(seed, (int, np.integer)):
            raise ParameterError(
                f"planner seed must be an int (a shareable plan datum), got "
                f"{type(seed).__name__}"
            )
        self.seed = None if seed is None else int(seed)

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def shard_of(self, values: Union[np.ndarray, Sequence[int]]) -> np.ndarray:
        """The shard id of every client (hash strategy's routing table)."""
        arr = np.asarray(values, dtype=np.int64)
        if self.strategy == "range":
            bounds = self._range_bounds(arr.size)
            return np.searchsorted(bounds[1:], np.arange(arr.size), side="right")
        mixed = arr.astype(np.uint64)
        mixed *= _HASH_MULTIPLIER
        mixed += _HASH_INCREMENT
        # splitmix64's finaliser: ``% K`` reads the low bits, which the
        # multiply-add alone barely moves across small values.
        mixed ^= mixed >> np.uint64(30)
        mixed *= _FINAL_1
        mixed ^= mixed >> np.uint64(27)
        mixed *= _FINAL_2
        mixed ^= mixed >> np.uint64(31)
        return (mixed % np.uint64(self.num_shards)).astype(np.int64)

    def split(self, values: Union[np.ndarray, Sequence[int]]) -> List[np.ndarray]:
        """Partition ``values`` into ``K`` arrays (within-shard order kept).

        ``K = 1`` returns the input array unchanged (same object when it
        already is an int64 ndarray) — the identity plan.
        """
        arr = np.asarray(values, dtype=np.int64)
        if self.num_shards == 1:
            return [arr]
        if self.strategy == "range":
            bounds = self._range_bounds(arr.size)
            return [arr[bounds[s] : bounds[s + 1]] for s in range(self.num_shards)]
        owners = self.shard_of(arr)
        return [arr[owners == s] for s in range(self.num_shards)]

    def _range_bounds(self, n: int) -> np.ndarray:
        return np.linspace(0, n, self.num_shards + 1).astype(np.int64)

    # ------------------------------------------------------------------
    # Per-shard randomness
    # ------------------------------------------------------------------
    def shard_seeds(self, fallback: RandomState = None) -> List[Optional[int]]:
        """One deterministic seed per shard.

        With ``K = 1`` the master seed passes through *underived* (or
        ``fallback`` when the planner has no seed) — this is what makes a
        one-shard plan replay the unsharded path bit for bit.  With
        ``K > 1`` the seeds are drawn from the master seed in shard
        order; ``fallback`` (an int or a live generator, e.g. a session
        stream) replaces a missing master seed.
        """
        source: RandomState = self.seed if self.seed is not None else fallback
        if self.num_shards == 1:
            if source is None:
                return [None]
            if isinstance(source, (int, np.integer)):
                return [int(source)]
            return [source]  # a live generator passes straight through
        if source is None:
            raise ParameterError(
                "a multi-shard plan needs a seed (planner seed or fallback); "
                "shard randomness must be fixed by the plan, not by scheduling"
            )
        rng = ensure_rng(source)
        return [derive_seed(rng) for _ in range(self.num_shards)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardPlanner(num_shards={self.num_shards}, "
            f"strategy={self.strategy!r}, seed={self.seed})"
        )
