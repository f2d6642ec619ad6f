"""Tests for :class:`repro.api.JoinSession` — incremental, mergeable,
serialisable collection."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EstimateResult, JoinSession
from repro.core import SketchParams, build_sketch, encode_reports
from repro.distributed import PartialAggregate
from repro.errors import IncompatibleSketchError, ParameterError, ProtocolError
from repro.hashing import HashPairs
from repro.join import exact_join_size

from .conftest import zipf_values


@pytest.fixture
def params() -> SketchParams:
    return SketchParams(k=5, m=128, epsilon=4.0)


@pytest.fixture
def streams():
    return (
        zipf_values(20_000, 256, 1.3, seed=1),
        zipf_values(20_000, 256, 1.3, seed=2),
    )


def through_json(session: JoinSession) -> JoinSession:
    """``session`` rebuilt in a fresh object from its JSON wire form only:
    the partial and the published pairs, as another process reads them."""
    pairs = json.loads(json.dumps([p.to_dict() for p in session.pairs]))
    payload = json.loads(json.dumps(session.to_partial().to_dict()))
    return JoinSession(
        session.params, pairs=[HashPairs.from_dict(p) for p in pairs]
    ).merge(PartialAggregate.from_dict(payload))


class TestCollectAndEstimate:
    def test_two_way_estimate_is_reasonable(self, params, streams):
        a, b = streams
        truth = exact_join_size(a, b, 256)
        session = JoinSession(params.with_epsilon(8.0), seed=3)
        session.collect("A", a)
        session.collect("B", b)
        result = session.estimate()
        assert isinstance(result, EstimateResult)
        assert abs(result.estimate - truth) / truth < 0.5

    def test_accounting(self, params, streams):
        a, b = streams
        session = JoinSession(params, seed=3)
        session.collect("A", a)
        session.collect("B", b)
        result = session.estimate("A", "B")
        assert result.uplink_bits == (a.size + b.size) * params.report_bits
        assert result.sketch_bytes == 2 * params.k * params.m * 8
        assert result.offline_seconds > 0
        assert result.online_seconds >= 0
        assert result.ledger.worst_case_epsilon() == pytest.approx(4.0)
        assert {g for g, _, _ in result.ledger.charges} == {"A", "B"}

    def test_incremental_equals_one_shot(self, params, streams):
        """Batch boundaries don't matter: pre-transform integer sums."""
        a, b = streams
        pairs_owner = JoinSession(params, seed=9)
        shared = pairs_owner.pairs

        one_shot = JoinSession(params, pairs=shared)
        # chunk_size >= n pins the fused path to the single-batch RNG
        # stream, so the pre-encoded batches below carry the same reports.
        one_shot.collect("A", a, seed=11, chunk_size=a.size)
        one_shot.collect("B", b, seed=12, chunk_size=b.size)

        incremental = JoinSession(params, pairs=shared)
        # Same client reports, delivered as pre-encoded wire batches in
        # three chunks per stream.
        for values, stream, seed in ((a, "A", 11), (b, "B", 12)):
            batch = encode_reports(values, params, shared[0], np.random.default_rng(seed))
            for lo, hi in ((0, 7_000), (7_000, 7_001), (7_001, values.size)):
                from repro.core import ReportBatch

                incremental.collect(
                    stream,
                    ReportBatch(
                        batch.ys[lo:hi], batch.rows[lo:hi], batch.cols[lo:hi], params
                    ),
                )
        e1 = one_shot.estimate().estimate
        e2 = incremental.estimate().estimate
        assert e1 == e2  # bit-for-bit

    def test_collect_seed_matches_manual_encoding(self, params, streams):
        """collect(values, seed=s) is exactly Algorithm 1 under seed s."""
        a, _ = streams
        session = JoinSession(params, seed=4)
        session.collect("A", a, seed=21, chunk_size=a.size)
        manual = build_sketch(
            encode_reports(a, params, session.pairs[0], np.random.default_rng(21)),
            session.pairs[0],
        )
        # Same reports; only the accumulation grouping differs, and the
        # integer path is exact, so counters agree to float tolerance
        # (absolute, scaled to the largest counter — near-zero cells have
        # no meaningful relative error).
        np.testing.assert_allclose(
            session.sketch("A").counts,
            manual.counts,
            rtol=1e-9,
            atol=1e-9 * float(np.abs(manual.counts).max()),
        )

    def test_frequencies_and_second_moment(self, params):
        values = np.repeat(np.arange(8), 2_000)
        session = JoinSession(params.with_epsilon(8.0), seed=5)
        session.collect("X", values)
        est = session.frequencies("X", np.arange(8))
        assert np.all(np.abs(est - 2_000) < 1_500)
        f2 = session.second_moment("X")
        truth = float(8 * 2_000**2)
        assert abs(f2 - truth) / truth < 0.5

    def test_empty_stream_queries_rejected(self, params):
        session = JoinSession(params, seed=6)
        session.collect("A", np.zeros(0, dtype=np.int64))
        with pytest.raises(ProtocolError, match="no reports"):
            session.sketch("A")
        with pytest.raises(ProtocolError, match="unknown stream"):
            session.sketch("missing")

    def test_report_batch_params_must_match(self, params, streams):
        a, _ = streams
        session = JoinSession(params, seed=7)
        other = SketchParams(params.k, params.m, 9.0)
        bad = encode_reports(a, other, session.pairs[0], np.random.default_rng(0))
        with pytest.raises(IncompatibleSketchError, match="do not match"):
            session.collect("A", bad)

    def test_stream_attribute_binding_enforced(self, params):
        session = JoinSession(params, attribute_widths=[128, 128], seed=8)
        session.collect("T1", np.arange(10), attribute=0)
        with pytest.raises(ProtocolError, match="bound to attribute"):
            session.collect("T1", np.arange(10), attribute=1)
        with pytest.raises(ProtocolError, match="end tables"):
            session.collect_pair("T1", np.arange(10), np.arange(10))


class TestSharding:
    def test_merged_shards_reproduce_single_sketch_bitwise(self, params, streams):
        a, b = streams
        coordinator = JoinSession(params, seed=42)
        single = JoinSession(params, pairs=coordinator.pairs)
        (a1, a2), (b1, b2) = np.array_split(a, 2), np.array_split(b, 2)
        single.collect("A", a1, seed=1)
        single.collect("A", a2, seed=2)
        single.collect("B", b1, seed=3)
        single.collect("B", b2, seed=4)

        shard1 = coordinator.spawn_shard()
        shard2 = coordinator.spawn_shard()
        shard1.collect("A", a1, seed=1)
        shard1.collect("B", b1, seed=3)
        shard2.collect("A", a2, seed=2)
        shard2.collect("B", b2, seed=4)
        coordinator.merge(shard1).merge(shard2)

        assert coordinator.estimate().estimate == single.estimate().estimate
        np.testing.assert_array_equal(
            coordinator.sketch("A").counts, single.sketch("A").counts
        )
        assert coordinator.num_reports("A") == a.size

    def test_merge_keeps_parallel_composition(self, params, streams):
        a, b = streams
        coordinator = JoinSession(params, seed=13)
        shard1 = coordinator.spawn_shard()
        shard2 = coordinator.spawn_shard()
        shard1.collect("A", a[:100], seed=1)
        shard2.collect("A", a[100:200], seed=2)
        coordinator.merge(shard1).merge(shard2)
        # Disjoint cohorts: worst-case spend stays epsilon, not 2 epsilon.
        assert coordinator.ledger.worst_case_epsilon() == pytest.approx(params.epsilon)
        groups = [g for g, _, _ in coordinator.ledger.charges]
        assert len(groups) == len(set(groups)) == 2

    def test_merge_rejects_different_params(self, params):
        s1 = JoinSession(params, seed=1)
        s2 = JoinSession(params.with_epsilon(9.0), seed=1)
        with pytest.raises(IncompatibleSketchError, match="budget"):
            s1.merge(s2)

    def test_merge_rejects_different_pairs(self, params):
        s1 = JoinSession(params, seed=1)
        s2 = JoinSession(params, seed=2)
        with pytest.raises(IncompatibleSketchError, match="hash pairs"):
            s1.merge(s2)

    def test_merge_rejects_non_session(self, params):
        with pytest.raises(IncompatibleSketchError):
            JoinSession(params, seed=1).merge("not a session")

    def test_merge_rejects_self(self, params):
        # Regression: self-merge used to append to the ledger while
        # iterating it — an unbounded loop.
        session = JoinSession(params, seed=1)
        session.collect("A", np.arange(32))
        with pytest.raises(IncompatibleSketchError, match="itself"):
            session.merge(session)

    def test_serialisation_round_trip(self, params, streams):
        """End and middle streams answer every query identically after a
        JSON round-trip of the partial and the pairs."""
        a, b = streams
        rng = np.random.default_rng(4)
        session = JoinSession(params, attribute_widths=[128, 64], seed=3)
        session.collect("A", a)
        session.collect("A2", b)
        session.collect_pair("M", rng.integers(0, 256, 5_000), rng.integers(0, 256, 5_000))
        session.collect("B", b[:5_000], attribute=1)
        restored = through_json(session)
        assert restored.streams() == session.streams()
        assert restored.estimate("A", "A2").estimate == session.estimate("A", "A2").estimate
        assert (
            restored.estimate_chain(["A", "M", "B"]).estimate
            == session.estimate_chain(["A", "M", "B"]).estimate
        )
        probe = np.arange(40)
        assert (restored.frequencies("A", probe) == session.frequencies("A", probe)).all()
        assert restored.second_moment("B") == session.second_moment("B")
        assert restored.num_reports("M") == session.num_reports("M")
        assert restored.ledger.charges == session.ledger.charges
        assert restored.offline_seconds == session.offline_seconds
        # A restored shard keeps merging with the original lineage.
        session.merge(restored)
        assert session.num_reports("A") == 2 * a.size


class TestPairsDigest:
    """Every ``node.ckpt`` and ``shard run`` partial carries this digest,
    so the literal values pin it against any change to how it is computed."""

    @pytest.mark.parametrize(
        "widths, kwargs, digest",
        [
            (None, dict(k=16, m=1024, epsilon=4.0, seed=7), "bb523c19b079d5f25202475c6fc636af"),
            ([64, 32, 128], dict(k=5, m=64, epsilon=2.0, seed=11),
             "bdd7d78bfc1a9f9dcad2683ffd84a7a8"),
        ],
        ids=["one-attribute", "three-attribute"],
    )
    def test_digest_is_pinned(self, widths, kwargs, digest):
        seed = kwargs.pop("seed")
        session = JoinSession(SketchParams(**kwargs), attribute_widths=widths, seed=seed)
        assert session.shard_fingerprint()["hash pairs digest"] == digest
        # Twice: the second call reads each pair's cached text.
        assert session.to_partial().fingerprint["hash pairs digest"] == digest

    def test_digest_is_the_digest_of_the_serialised_pairs(self):
        from repro.distributed import fingerprint_digest
        from repro.distributed.partial import pairs_digest

        pairs = JoinSession(
            SketchParams(k=4, m=64, epsilon=1.0), attribute_widths=[64, 16, 32], seed=3
        ).pairs
        for chosen in ([], pairs[:1], pairs, pairs[::-1], [pairs[0], pairs[0]]):
            assert pairs_digest(chosen) == fingerprint_digest([p.to_dict() for p in chosen])
        assert pairs[0].canonical_json() is pairs[0].canonical_json()


class TestReservedStreamNames:
    """``#`` and ``@`` mark generated ledger groups (``A#2`` is stream A's
    second cohort, ``g@shard1`` a group a merge renamed), so a stream
    literally named ``A#2`` would share stream A's second cohort's group."""

    @pytest.mark.parametrize("name", ["A#2", "A@shard1", "#", "x@"])
    def test_collect_refuses_a_ledger_mark(self, params, streams, name):
        session = JoinSession(params, attribute_widths=[128, 64], seed=3)
        session.collect("A", streams[0][:100])
        session.collect("A", streams[0][100:200])
        with pytest.raises(ParameterError, match="reserved for ledger group names"):
            session.collect(name, streams[1][:100])
        with pytest.raises(ParameterError, match="reserved for ledger group names"):
            session.collect_pair(name, np.arange(10), np.arange(10))
        assert session.streams() == ("A",)
        assert [g for g, _, _ in session.ledger.charges] == ["A", "A#2"]
        # Two disjoint cohorts of one stream: epsilon, here and rebuilt.
        assert session.ledger.worst_case_epsilon() == pytest.approx(params.epsilon)
        assert through_json(session).ledger.worst_case_epsilon() == pytest.approx(
            params.epsilon
        )


class TestLedgerMergeInvariance:
    """Regression suite for the cross-process ledger-corruption bug.

    ``merge`` used to rename colliding charge groups with a fixed
    ``group@{label}`` tag and no uniqueness probing.  Labels are a
    per-process counter (``shard1``, ``shard2``, ...), so two sessions
    rebuilt in different processes could carry the SAME label; merging
    their disjoint cohorts then landed both charges
    in one group and sequential composition doubled the reported spend
    (2eps instead of eps).  These tests pin the repaired invariant:
    K disjoint shards keep worst-case spend eps through every merge
    path, any labels, any serialisation interleaving.
    """

    def _shards(self, params, values, count, seed=13):
        coordinator = JoinSession(params, seed=seed)
        shards = []
        for index, chunk in enumerate(np.array_split(values, count)):
            shard = coordinator.spawn_shard()
            shard.collect("A", chunk, seed=index + 1)
            shards.append(shard)
        return coordinator, shards

    def test_pinned_2eps_regression_same_label(self, params, streams):
        # The exact pre-fix failure: two shards forced onto one label (as
        # happens when both were rebooted in sibling processes).
        a, _ = streams
        coordinator, (shard1, shard2) = self._shards(params, a[:200], 2)
        shard1._label = shard2._label = "shard1"
        coordinator.merge(shard1).merge(shard2)
        groups = [g for g, _, _ in coordinator.ledger.charges]
        assert len(groups) == len(set(groups)) == 2
        # Before the fix this read 2 * eps — sequential composition of two
        # cohorts that never shared a user.
        assert coordinator.ledger.worst_case_epsilon() == pytest.approx(
            params.epsilon
        )

    def test_cross_process_round_trip_keeps_epsilon(self, params, streams):
        a, _ = streams
        coordinator, shards = self._shards(params, a[:300], 3)
        for shard in shards:
            coordinator.merge(through_json(shard))
        assert coordinator.ledger.worst_case_epsilon() == pytest.approx(
            params.epsilon
        )
        groups = [g for g, _, _ in coordinator.ledger.charges]
        assert len(groups) == len(set(groups)) == 3

    def test_rebuilt_session_takes_a_fresh_label(self, params, streams):
        # The label does not travel: merging a session with its own
        # rebuild still renames the rebuild's cohort apart.
        a, _ = streams
        session = JoinSession(params, seed=3)
        session.collect("A", a[:50])
        restored = through_json(session)
        assert restored._label and restored._label != session._label
        assert restored.num_reports("A") == 50
        session.merge(restored)
        groups = [g for g, _, _ in session.ledger.charges]
        assert groups == ["A", f"A@{restored._label}1"]
        assert session.ledger.worst_case_epsilon() == pytest.approx(params.epsilon)

    def test_partial_merge_path_keeps_epsilon(self, params, streams):
        a, _ = streams
        coordinator, shards = self._shards(params, a[:300], 3)
        for shard in shards:
            coordinator.merge(shard.to_partial())
        assert coordinator.ledger.worst_case_epsilon() == pytest.approx(
            params.epsilon
        )
        groups = [g for g, _, _ in coordinator.ledger.charges]
        assert len(groups) == len(set(groups)) == 3

    @given(
        shard_count=st.integers(min_value=2, max_value=5),
        labels=st.lists(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=127
                ),
                min_size=1,
                max_size=8,
            ),
            min_size=5,
            max_size=5,
        ),
        serialize_mask=st.integers(min_value=0, max_value=31),
        use_partials=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_disjoint_shards_keep_epsilon(
        self, shard_count, labels, serialize_mask, use_partials
    ):
        """K disjoint shards always merge to worst-case eps — any labels,
        any per-shard serialisation round-trip, either merge path."""
        params = SketchParams(k=3, m=32, epsilon=4.0)
        values = np.arange(shard_count * 16)
        coordinator, shards = self._shards(params, values, shard_count, seed=7)
        for index, shard in enumerate(shards):
            if (serialize_mask >> index) & 1:
                shard = through_json(shard)
            shard._label = labels[index]
            coordinator.merge(shard.to_partial() if use_partials else shard)
        assert coordinator.ledger.worst_case_epsilon() == pytest.approx(
            params.epsilon
        )
        groups = [g for g, _, _ in coordinator.ledger.charges]
        assert len(groups) == len(set(groups)) == shard_count
        assert coordinator.num_reports("A") == values.size


class TestChainQueries:
    def test_chain_session_matches_protocol(self):
        """Feeding identical wire batches, session == LDPCompassProtocol."""
        from repro.core import LDPCompassProtocol

        params = SketchParams(k=5, m=64, epsilon=8.0)
        rng = np.random.default_rng(17)
        t1 = rng.integers(0, 64, 20_000)
        mid = (rng.integers(0, 64, 20_000), rng.integers(0, 64, 20_000))
        t3 = rng.integers(0, 64, 20_000)

        session = JoinSession(params, attribute_widths=[64, 64], seed=19)
        protocol = LDPCompassProtocol.from_pairs(session.pairs, params.epsilon)
        r1 = protocol.encode_end(0, t1, np.random.default_rng(1))
        rmid = protocol.encode_middle(0, *mid, np.random.default_rng(2))
        r3 = protocol.encode_end(1, t3, np.random.default_rng(3))

        session.collect("T1", r1, attribute=0)
        session.collect_pair("T2", rmid, left_attribute=0)
        session.collect("T3", r3, attribute=1)
        result = session.estimate_chain()

        expected = protocol.estimate_chain(
            protocol.build_end(0, r1),
            [protocol.build_middle(0, rmid)],
            protocol.build_end(1, r3),
        )
        assert result.estimate == pytest.approx(expected, rel=1e-9)
        assert result.uplink_bits == r1.total_bits + rmid.total_bits + r3.total_bits
        assert result.sketch_bytes > 0

    def test_chain_stream_order_validated(self):
        params = SketchParams(k=3, m=32, epsilon=4.0)
        session = JoinSession(params, attribute_widths=[32, 32], seed=1)
        session.collect("T1", np.arange(16), attribute=0)
        session.collect("T3", np.arange(16), attribute=1)
        with pytest.raises(ProtocolError, match="at least two"):
            session.estimate_chain(["T1"])
        with pytest.raises(ProtocolError, match="distinct"):
            session.estimate_chain(["T1", "T1"])

    def test_chain_rejects_repeated_stream(self):
        # Regression: the self-join guard must cover estimate_chain too —
        # a sketch chained with itself keeps its noise energy undebiased.
        params = SketchParams(k=3, m=32, epsilon=4.0)
        session = JoinSession(params, seed=1)
        session.collect("A", np.arange(16))
        with pytest.raises(ProtocolError, match="distinct"):
            session.estimate_chain(["A", "A"])

    def test_middle_batch_attribute_bounds(self):
        params = SketchParams(k=3, m=32, epsilon=4.0)
        session = JoinSession(params, seed=1)  # one attribute: no middles
        with pytest.raises(ParameterError, match="left_attribute"):
            session.collect_pair("M", np.arange(4), np.arange(4))

    def test_estimate_rejects_same_stream_twice(self):
        # Regression: sketch x itself is not a join estimate — the noise
        # products do not cancel; second_moment is the debiased read-out.
        params = SketchParams(k=3, m=32, epsilon=4.0)
        session = JoinSession(params, seed=1)
        session.collect("A", np.arange(16))
        with pytest.raises(ProtocolError, match="second_moment"):
            session.estimate("A", "A")

    def test_estimate_rejects_cross_attribute_pair(self):
        params = SketchParams(k=3, m=32, epsilon=4.0)
        session = JoinSession(params, attribute_widths=[32, 32], seed=1)
        session.collect("T1", np.arange(16), attribute=0)
        session.collect("T3", np.arange(16), attribute=1)
        with pytest.raises(ProtocolError, match="different join"):
            session.estimate("T1", "T3")
