"""The partial form every baseline accumulator shares, and refused merges.

Each frequency oracle and the Fast-AGMS sketch merge through one rule
(:class:`repro.mergeable.MergeableState`): an in-memory merge is the
restore of the two shards' merged partials.  A merge that is refused —
at any layer — must leave the left operand exactly as it was.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import JoinSession
from repro.core import SketchParams
from repro.distributed import PartialAggregate
from repro.errors import IncompatibleSketchError, PartialIntegrityError
from repro.hashing import HashPairs
from repro.mechanisms import (
    FLHOracle,
    HCMSOracle,
    KRROracle,
    LDPJoinSketchOracle,
    OLHOracle,
)
from repro.sketches import FastAGMSSketch

from .conftest import zipf_values

DOMAIN = 128
EPSILON = 4.0

ACCUMULATORS = {
    "krr": lambda seed: KRROracle(DOMAIN, EPSILON, seed),
    "olh": lambda seed: OLHOracle(DOMAIN, EPSILON, seed),
    "flh": lambda seed: FLHOracle(DOMAIN, EPSILON, seed, pool_size=32),
    "hcms": lambda seed: HCMSOracle(DOMAIN, EPSILON, seed, k=3, m=64),
    "ldpjs": lambda seed: LDPJoinSketchOracle(DOMAIN, EPSILON, seed, k=3, m=64),
    "fagms": lambda seed: FastAGMSSketch(HashPairs(3, 32, seed)),
}


def _fill(accumulator, values, rng) -> None:
    if isinstance(accumulator, FastAGMSSketch):
        accumulator.update_batch(values)
    else:
        accumulator.collect(values, rng=rng)


def _read(accumulator, probe):
    """The accumulator's estimates: every frequency, or a join with ``probe``."""
    if isinstance(accumulator, FastAGMSSketch):
        return np.array([accumulator.inner_product(probe)])
    return accumulator.all_frequencies()


@pytest.mark.parametrize("name", sorted(ACCUMULATORS))
def test_in_memory_merge_is_the_restore_of_merged_partials(name):
    make = ACCUMULATORS[name]
    values = zipf_values(4_000, DOMAIN, 1.2, seed=5)
    left, right = make(7), make(7)
    _fill(left, values[:1_500], 1)
    _fill(right, values[1_500:], 2)
    probe = make(7)
    _fill(probe, values[::-1], 3)
    # Read before merging: a merge that kept a stale FWHT cache (HCMS,
    # LDPJoinSketch) would answer with these pre-merge estimates.
    before = _read(left, probe)

    partials = [left.to_partial(), right.to_partial()]
    wire = [
        PartialAggregate.from_dict(json.loads(json.dumps(partial.to_dict())))
        for partial in partials
    ]
    assert wire == partials
    restored = make(7).restore(wire[0].merge(wire[1]))
    left.merge(right)

    assert left.to_partial() == restored.to_partial()
    np.testing.assert_array_equal(_read(left, probe), _read(restored, probe))
    assert not np.array_equal(_read(left, probe), before)


def test_restore_refuses_another_configuration():
    shard = FLHOracle(DOMAIN, EPSILON, 1, pool_size=32)
    shard.collect(zipf_values(500, DOMAIN, 1.2, seed=4), rng=1)
    with pytest.raises(IncompatibleSketchError, match="another configuration"):
        FLHOracle(DOMAIN, EPSILON, 2, pool_size=32).restore(shard.to_partial())


def _state(session):
    return (
        {name: session._streams[name].raw.copy() for name in session.streams()},
        {name: session.num_reports(name) for name in session.streams()},
        list(session.ledger.charges),
        session.offline_seconds,
    )


@pytest.mark.parametrize("as_partial", [False, True], ids=["session", "partial"])
def test_refused_session_merge_changes_nothing(as_partial):
    """Stream ``A`` matches, stream ``M`` is bound elsewhere: nothing merges."""
    params = SketchParams(k=3, m=32, epsilon=EPSILON)
    coordinator = JoinSession(params, attribute_widths=[32, 32], seed=1)
    coordinator.collect("A", np.arange(10), seed=2)
    coordinator.collect("M", np.arange(10), attribute=1, seed=3)
    shard = coordinator.spawn_shard()
    shard.collect("A", np.arange(50), seed=4)
    shard.collect("M", np.arange(50), attribute=0, seed=5)
    before = _state(coordinator)

    with pytest.raises(IncompatibleSketchError, match="'M'"):
        coordinator.merge(shard.to_partial() if as_partial else shard)

    after = _state(coordinator)
    assert after[0].keys() == before[0].keys()
    for name, raw in before[0].items():
        np.testing.assert_array_equal(after[0][name], raw)
    assert after[1:] == before[1:]
    assert coordinator.num_reports("A") == 10


def _drop(mapping, key):
    del mapping[key]


#: Ways a partial read from disk can name stream ``B`` without carrying it.
MALFORMED = {
    "no kind": lambda p: _drop(p.meta["streams"]["B"], "kind"),
    "no attribute": lambda p: _drop(p.meta["streams"]["B"], "attribute"),
    "no raw array": lambda p: _drop(p.arrays, "stream:B:raw"),
    "no counter": lambda p: _drop(p.counters, "stream:B:cohorts"),
    "non-finite counter": lambda p: p.counters.update({"stream:B:num_reports": float("nan")}),
    "entry not a dict": lambda p: p.meta["streams"].update(B=["end", 0]),
    "attribute not an integer": lambda p: p.meta["streams"]["B"].update(attribute="0"),
    "unknown kind": lambda p: p.meta["streams"]["B"].update(kind="side"),
    "streams not a mapping": lambda p: p.meta.update(streams=["A", "B"]),
    "charge not a triple": lambda p: p.meta["charges"].append(["B", 4.0]),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_session_partial_is_typed_and_changes_nothing(shape):
    """Stream ``A`` is well formed and would merge first: nothing merges."""
    params = SketchParams(k=3, m=32, epsilon=EPSILON)
    coordinator = JoinSession(params, seed=1)
    coordinator.collect("A", np.arange(10), seed=2)
    shard = coordinator.spawn_shard()
    shard.collect("A", np.arange(50), seed=4)
    shard.collect("B", np.arange(50), seed=5)
    partial = shard.to_partial()
    MALFORMED[shape](partial)
    before = _state(coordinator)

    with pytest.raises(PartialIntegrityError):
        coordinator.merge(partial)

    after = _state(coordinator)
    assert after[0].keys() == before[0].keys() == {"A"}
    np.testing.assert_array_equal(after[0]["A"], before[0]["A"])
    assert after[1:] == before[1:]


def test_refused_partial_merge_changes_nothing():
    left = PartialAggregate(
        "t",
        {"m": 2},
        {"x": np.array([1, 2])},
        counters={"n": 1.0},
        meta={"tag": "a", "charges": [["A", 1.0, "mech"]]},
    )
    right = PartialAggregate(
        "t",
        {"m": 2},
        {"x": np.array([10, 20])},
        counters={"n": 5.0},
        meta={"tag": "b", "charges": [["B", 1.0, "mech"]]},
    )
    with pytest.raises(IncompatibleSketchError, match="meta 'tag'"):
        left.merge(right)
    np.testing.assert_array_equal(left.arrays["x"], [1, 2])
    assert left.counters == {"n": 1.0}
    assert left.meta == {"tag": "a", "charges": [["A", 1.0, "mech"]]}
