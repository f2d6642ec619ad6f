"""Metamorphic tests of the distributed wire formats.

Two families:

* **save → load → merge == merge** — every :class:`PartialAggregate` a
  driver or a session can emit must round-trip through
  JSON and then merge to byte-identical state, so partials can travel
  files/queues/RPC without perturbing a single bit;
* **unsafe merges are refused** — a partial built under the wrong seed,
  the wrong width or the wrong privacy budget (or a tampered payload)
  raises :class:`IncompatibleSketchError`/:class:`ParameterError`
  instead of corrupting the estimate.

Plus the checkpoint contract: a shard aggregator killed mid-stream and
resumed from its last flushed checkpoint finishes byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import JoinSession, get_estimator
from repro.core import SketchParams
from repro.data.base import JoinInstance
from repro.distributed import (
    PartialAggregate,
    ShardCheckpoint,
    content_checksum,
    ingest_with_checkpoint,
    merge_sequential,
    merge_tree,
    prepare_shard_run,
)
from repro.errors import IncompatibleSketchError, ParameterError, PartialIntegrityError
from repro.hashing import HashPairs

from .conftest import zipf_values

DOMAIN = 64
EPSILON = 4.0

#: (registry name, options, strategy) for every single-round driver.
SINGLE_ROUND_METHODS = [
    ("fagms", dict(k=3, m=32)),
    ("krr", dict()),
    ("olh", dict()),
    ("flh", dict(pool_size=16)),
    ("hcms", dict(k=3, m=32)),
    ("ldp-join-sketch", dict(k=3, m=32)),
    ("compass", dict(k=3, m=32)),
]


@pytest.fixture(scope="module")
def instance() -> JoinInstance:
    return JoinInstance(
        name="wire-zipf",
        values_a=zipf_values(800, DOMAIN, 1.2, seed=1),
        values_b=zipf_values(900, DOMAIN, 1.1, seed=2),
        domain_size=DOMAIN,
    )


def _roundtrip(partial: PartialAggregate) -> PartialAggregate:
    return PartialAggregate.from_dict(json.loads(json.dumps(partial.to_dict())))


class TestPartialRoundTrip:
    @pytest.mark.parametrize("name,options", SINGLE_ROUND_METHODS)
    def test_save_load_merge_equals_in_memory_merge(self, name, options, instance):
        estimator = get_estimator(name, **options)
        run = prepare_shard_run(
            estimator, instance, EPSILON, num_shards=3, seed=17
        )
        partials = run.collect_all()
        in_memory = merge_tree(partials)
        through_disk = merge_tree([_roundtrip(p) for p in partials])
        assert set(in_memory.arrays) == set(through_disk.arrays)
        for key in in_memory.arrays:
            assert in_memory.arrays[key].dtype == through_disk.arrays[key].dtype
            np.testing.assert_array_equal(
                in_memory.arrays[key], through_disk.arrays[key]
            )
        assert in_memory.counters == through_disk.counters
        assert in_memory.fingerprint == through_disk.fingerprint
        # The finalised estimates agree bit for bit too.
        assert (
            run.finalize(in_memory).estimate
            == run.finalize(through_disk).estimate
        )

    def test_roundtrip_preserves_equality_exactly(self, instance):
        estimator = get_estimator("ldp-join-sketch", k=3, m=32)
        run = prepare_shard_run(estimator, instance, EPSILON, num_shards=2, seed=3)
        for partial in run.collect_all():
            assert _roundtrip(partial) == partial

    def test_session_payload_roundtrip_then_merge(self):
        """Sessions rebuilt from their partial and pairs JSON merge
        identically to the shards themselves."""
        params = SketchParams(k=3, m=32, epsilon=2.0)
        coordinator = JoinSession(params, seed=5)
        shard_a = coordinator.spawn_shard()
        shard_b = coordinator.spawn_shard()
        shard_a.collect("A", zipf_values(500, DOMAIN, 1.3, seed=6), seed=10)
        shard_b.collect("A", zipf_values(400, DOMAIN, 1.3, seed=7), seed=11)

        direct = JoinSession(params, pairs=coordinator.pairs)
        direct.merge(shard_a).merge(shard_b)
        via_json = JoinSession(params, pairs=coordinator.pairs)
        for shard in (shard_a, shard_b):
            pairs = json.loads(json.dumps([p.to_dict() for p in shard.pairs]))
            rebuilt = JoinSession(params, pairs=[HashPairs.from_dict(p) for p in pairs])
            via_json.merge(rebuilt.merge(_roundtrip(shard.to_partial())))
        np.testing.assert_array_equal(
            direct._streams["A"].raw, via_json._streams["A"].raw
        )
        via_partial = JoinSession(params, pairs=coordinator.pairs)
        via_partial.merge(
            merge_sequential(
                [_roundtrip(shard_a.to_partial()), _roundtrip(shard_b.to_partial())]
            )
        )
        np.testing.assert_array_equal(
            direct._streams["A"].raw, via_partial._streams["A"].raw
        )

    def test_version_gate(self, instance):
        estimator = get_estimator("krr")
        run = prepare_shard_run(estimator, instance, EPSILON, num_shards=2, seed=1)
        payload = run.collect(0).to_dict()
        payload["version"] = 99
        with pytest.raises(ParameterError, match="version"):
            PartialAggregate.from_dict(payload)
        payload["version"] = 1
        payload["format"] = "something/else"
        with pytest.raises(ParameterError, match="partial-aggregate"):
            PartialAggregate.from_dict(payload)

    @pytest.mark.parametrize(
        "payload, found",
        [
            ({"format": "x", "version": 2}, "format='x'"),
            ({"version": 2}, "format=None"),
            ([{"format": "partial-aggregate"}], "a list"),
            ("partial", "a str"),
        ],
        ids=["wrong-format", "no-format", "list", "str"],
    )
    def test_refusal_names_what_it_found(self, payload, found):
        with pytest.raises(ParameterError) as error:
            PartialAggregate.from_dict(payload)
        assert str(error.value) == f"not a partial-aggregate payload ({found})"

    def test_tampered_array_payload_rejected(self, instance):
        estimator = get_estimator("krr")
        run = prepare_shard_run(estimator, instance, EPSILON, num_shards=2, seed=1)
        payload = run.collect(0).to_dict()
        entry = payload["arrays"]["A:report_counts"]["data"]
        entry["data"] = entry["data"][: len(entry["data"]) // 2]
        with pytest.raises(ParameterError):
            PartialAggregate.from_dict(payload)

    def test_nested_list_array_payload_rejected(self):
        """Arrays load only in their packed form: a nested-list ``data``
        is refused even under a recomputed checksum."""
        session = JoinSession(SketchParams(k=3, m=32, epsilon=2.0), seed=5)
        session.collect("A", zipf_values(300, DOMAIN, 1.3, seed=6), seed=1)
        partial = session.to_partial()
        payload = partial.to_dict()
        payload["arrays"]["stream:A:raw"]["data"] = partial.arrays["stream:A:raw"].tolist()
        payload["checksum"] = content_checksum(payload["arrays"])
        with pytest.raises(PartialIntegrityError, match="stream:A:raw"):
            PartialAggregate.from_dict(json.loads(json.dumps(payload)))


class TestUnsafeMergeRefusal:
    @staticmethod
    def _session_partial(seed, m=32, epsilon=2.0):
        session = JoinSession(SketchParams(k=3, m=m, epsilon=epsilon), seed=seed)
        session.collect("A", zipf_values(200, DOMAIN, 1.2, seed=9), seed=1)
        return session.to_partial()

    def test_wrong_seed_refused(self):
        """Different session seeds => different published pairs => refused."""
        with pytest.raises(IncompatibleSketchError, match="hash pairs"):
            self._session_partial(seed=1).merge(self._session_partial(seed=2))

    def test_wrong_m_refused(self):
        with pytest.raises(IncompatibleSketchError, match="m mismatch"):
            self._session_partial(seed=1).merge(self._session_partial(seed=1, m=64))

    def test_wrong_epsilon_refused(self):
        with pytest.raises(IncompatibleSketchError, match="budget"):
            self._session_partial(seed=1).merge(
                self._session_partial(seed=1, epsilon=8.0)
            )

    def test_wrong_method_refused(self, instance):
        krr = prepare_shard_run(
            get_estimator("krr"), instance, EPSILON, num_shards=2, seed=1
        ).collect(0)
        flh = prepare_shard_run(
            get_estimator("flh", pool_size=16), instance, EPSILON, num_shards=2, seed=1
        ).collect(0)
        with pytest.raises(IncompatibleSketchError, match="method"):
            krr.merge(flh)

    def test_session_refuses_foreign_partial(self, instance):
        session = JoinSession(SketchParams(k=3, m=32, epsilon=2.0), seed=1)
        oracle_partial = prepare_shard_run(
            get_estimator("krr"), instance, EPSILON, num_shards=2, seed=1
        ).collect(0)
        with pytest.raises(IncompatibleSketchError):
            session.merge(oracle_partial)

    def test_oracle_wrong_pool_seed_refused(self, instance):
        """Same estimator, different master seed: the published-state
        digest differs, so the wire merge is refused."""
        make = lambda seed: prepare_shard_run(  # noqa: E731
            get_estimator("flh", pool_size=16),
            instance,
            EPSILON,
            num_shards=2,
            seed=seed,
        ).collect(0)
        with pytest.raises(IncompatibleSketchError, match="digest"):
            make(1).merge(make(2))


class TestReviewRegressions:
    def test_to_partial_snapshots_the_accumulator(self):
        """Ingesting after to_partial() must not mutate the emitted partial."""
        session = JoinSession(SketchParams(k=3, m=32, epsilon=2.0), seed=1)
        session.collect("A", np.arange(64), seed=2)
        partial = session.to_partial()
        frozen = partial.arrays["stream:A:raw"].copy()
        session.collect("A", np.arange(64), seed=3)
        np.testing.assert_array_equal(partial.arrays["stream:A:raw"], frozen)

    def test_sequential_partial_merges_keep_ledger_groups_unique(self):
        """Folding N partials one by one renames every charge collision,
        so disjoint shard cohorts stay parallel-composed (worst case eps,
        not N*eps)."""
        params = SketchParams(k=3, m=32, epsilon=2.0)
        coordinator = JoinSession(params, seed=4)
        for i in range(4):
            shard = coordinator.spawn_shard()
            shard.collect("A", np.arange(50), seed=10 + i)
            coordinator.merge(shard.to_partial())
        groups = [g for g, _, _ in coordinator.ledger.charges]
        assert len(groups) == len(set(groups)) == 4
        assert coordinator.ledger.worst_case_epsilon() == pytest.approx(2.0)

    def test_cross_round_plus_partials_refused(self, instance):
        """Phase-1 and phase-2 LDPJoinSketch+ partials carry different
        rounds in their fingerprints and must not fuse."""
        p1 = PartialAggregate("ldp-join-sketch-plus", {"round": 1})
        p2 = PartialAggregate("ldp-join-sketch-plus", {"round": 2})
        with pytest.raises(IncompatibleSketchError, match="round"):
            p1.merge(p2)

    def test_conflicting_scalar_meta_refused(self):
        fp = {"k": 3}
        a = PartialAggregate("m", fp, meta={"tag": "x"})
        b = PartialAggregate("m", fp, meta={"tag": "y"})
        with pytest.raises(IncompatibleSketchError, match="tag"):
            a.merge(b)


class TestCheckpointResume:
    def _cohorts(self):
        rng = np.random.default_rng(77)
        cohorts = [rng.integers(0, DOMAIN, size=150) for _ in range(5)]
        seeds = [100 + i for i in range(len(cohorts))]
        return cohorts, seeds

    def test_resume_is_byte_identical(self, tmp_path):
        params = SketchParams(k=3, m=32, epsilon=2.0)
        coordinator = JoinSession(params, seed=8)
        cohorts, seeds = self._cohorts()

        # Uninterrupted run.
        straight = ingest_with_checkpoint(
            coordinator.spawn_shard(),
            "A",
            cohorts,
            seeds,
            ShardCheckpoint(tmp_path / "straight.json"),
        )

        # Crash after cohort 2 (simulated by just stopping), then resume
        # with a fresh session from the same checkpoint.
        crash_path = ShardCheckpoint(tmp_path / "crash.json")
        dying = coordinator.spawn_shard()
        for i in range(2):
            dying.collect("A", cohorts[i], seed=seeds[i])
            crash_path.flush(dying.to_partial(), cursor=i + 1)
        del dying  # the process is gone

        resumed = ingest_with_checkpoint(
            coordinator.spawn_shard(), "A", cohorts, seeds, crash_path
        )
        np.testing.assert_array_equal(
            straight.arrays["stream:A:raw"], resumed.arrays["stream:A:raw"]
        )
        assert (
            straight.counters["stream:A:num_reports"]
            == resumed.counters["stream:A:num_reports"]
        )

    def test_flush_is_atomic(self, tmp_path):
        """The temp file never lingers and the checkpoint is always valid."""
        params = SketchParams(k=3, m=32, epsilon=2.0)
        session = JoinSession(params, seed=8)
        session.collect("A", np.arange(64), seed=1)
        checkpoint = ShardCheckpoint(tmp_path / "ckpt.json")
        checkpoint.flush(session.to_partial(), cursor=1)
        assert not (tmp_path / "ckpt.json.tmp").exists()
        partial, cursor = checkpoint.load()
        assert cursor == 1
        np.testing.assert_array_equal(
            partial.arrays["stream:A:raw"], session.to_partial().arrays["stream:A:raw"]
        )
        checkpoint.clear()
        assert checkpoint.load() is None

    def test_completed_checkpoint_short_circuits(self, tmp_path):
        params = SketchParams(k=3, m=32, epsilon=2.0)
        coordinator = JoinSession(params, seed=8)
        cohorts, seeds = self._cohorts()
        checkpoint = ShardCheckpoint(tmp_path / "done.json")
        finished = ingest_with_checkpoint(
            coordinator.spawn_shard(), "A", cohorts, seeds, checkpoint
        )
        again = ingest_with_checkpoint(
            coordinator.spawn_shard(), "A", cohorts, seeds, checkpoint
        )
        np.testing.assert_array_equal(
            finished.arrays["stream:A:raw"], again.arrays["stream:A:raw"]
        )

    def test_cursor_beyond_plan_rejected(self, tmp_path):
        params = SketchParams(k=3, m=32, epsilon=2.0)
        coordinator = JoinSession(params, seed=8)
        cohorts, seeds = self._cohorts()
        checkpoint = ShardCheckpoint(tmp_path / "over.json")
        checkpoint.flush(coordinator.spawn_shard().to_partial(), cursor=99)
        with pytest.raises(ParameterError, match="cursor"):
            ingest_with_checkpoint(
                coordinator.spawn_shard(), "A", cohorts, seeds, checkpoint
            )
