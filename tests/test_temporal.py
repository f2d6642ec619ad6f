"""Tests for :mod:`repro.temporal` — epoch ring, windows, decay, budget.

The heart of the suite is the byte-identity matrix: a sliding-window
estimate over the epoch ring must equal, bit for bit, the estimate of a
fresh session that ingested only the window's batches — across every
registry method's sketch shape and several window widths, the same
treatment the sharded-merge suite applies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import JoinSession, available_estimators, get_estimator
from repro.core import SketchParams
from repro.errors import IncompatibleSketchError, ParameterError, ProtocolError
from repro.temporal import (
    EpochRing,
    TemporalSession,
    combine_decayed,
    decay_weights,
    decayed_join_estimate,
)

from .conftest import zipf_values


@pytest.fixture
def params() -> SketchParams:
    return SketchParams(k=4, m=64, epsilon=4.0)


def _epoch_slices(epochs: int, per_epoch: int = 400):
    a = zipf_values(epochs * per_epoch, 128, 1.2, seed=1)
    b = zipf_values(epochs * per_epoch, 128, 1.2, seed=2)
    return np.array_split(a, epochs), np.array_split(b, epochs)


def _filled_session(params, epochs: int, *, window_epochs: int = 8, seed=5):
    """A TemporalSession with ``epochs`` closed epochs of A/B traffic."""
    slices_a, slices_b = _epoch_slices(epochs)
    session = TemporalSession(params, window_epochs=window_epochs, seed=seed)
    for epoch, (sa, sb) in enumerate(zip(slices_a, slices_b)):
        session.collect("A", sa, seed=100 + epoch)
        session.collect("B", sb, seed=200 + epoch)
        session.roll()
    return session, slices_a, slices_b


class TestEpochRing:
    def _partial(self, params, seed):
        shard = JoinSession(params, seed=seed)
        shard.collect("A", np.arange(16), seed=seed)
        return shard.to_partial(include_timing=False)

    def test_push_and_eviction(self, params):
        ring = EpochRing(3)
        for epoch in range(5):
            ring.push(epoch, self._partial(params, epoch + 1))
        assert len(ring) == 3
        assert ring.epochs() == [2, 3, 4]
        assert ring.oldest_epoch() == 2
        assert ring.newest_epoch() == 4

    def test_epochs_strictly_increasing(self, params):
        ring = EpochRing(3)
        ring.push(1, self._partial(params, 1))
        with pytest.raises(ParameterError, match="order"):
            ring.push(1, self._partial(params, 2))
        with pytest.raises(ParameterError, match="order"):
            ring.push(0, self._partial(params, 3))

    def test_slice_behind_retention_refused(self, params):
        ring = EpochRing(2)
        for epoch in range(4):
            ring.push(epoch, self._partial(params, epoch + 1))
        assert [e for e, _ in ring.slice(2, 4)] == [2, 3]
        with pytest.raises(ParameterError, match="retention"):
            ring.slice(1, 3)  # epoch 1 was evicted

    def test_last(self, params):
        ring = EpochRing(4)
        for epoch in range(3):
            ring.push(epoch, self._partial(params, epoch + 1))
        assert [e for e, _ in ring.last(2)] == [1, 2]


class TestDecayWeights:
    def test_oldest_first_exact_powers(self):
        # count=3, lambda=1/2: ages 2,1,0 -> den^2 * lambda^age = 1, 2, 4.
        assert decay_weights(3, 1, 2) == [1, 2, 4]

    def test_no_decay_is_uniform(self):
        assert decay_weights(4, 1, 1) == [1, 1, 1, 1]

    def test_exact_rational_semantics(self):
        num, den, count = 2, 3, 5
        weights = decay_weights(count, num, den)
        # Entry i (age count-1-i) is num^age * den^i — exactly
        # den^(count-1) * (num/den)^age as unbounded ints.
        assert weights == [
            num ** (count - 1 - i) * den**i for i in range(count)
        ]

    def test_validation(self):
        with pytest.raises(ParameterError):
            decay_weights(0, 1, 2)
        with pytest.raises(ParameterError):
            decay_weights(3, 0, 2)
        with pytest.raises(ParameterError):
            decay_weights(3, 3, 2)  # growth, not decay


class TestCombineDecayed:
    def test_exact_weighted_sum_with_gaps(self):
        a = np.array([[1, 2]], dtype=np.int64)
        b = np.array([[10, -20]], dtype=np.int64)
        out = combine_decayed([a, None, b], [1, 2, 4])
        np.testing.assert_array_equal(out, a + 4 * b)

    def test_overflow_guard(self):
        big = np.full((2, 2), 2**40, dtype=np.int64)
        with pytest.raises(ParameterError, match="overflow"):
            combine_decayed([big], [2**30])

    def test_shape_and_emptiness_validation(self):
        a = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ParameterError, match="weights"):
            combine_decayed([a], [1, 2])
        with pytest.raises(ParameterError, match="all-empty"):
            combine_decayed([None, None], [1, 2])
        with pytest.raises(ParameterError, match="match"):
            combine_decayed([a, np.zeros((3, 3), dtype=np.int64)], [1, 2])


class TestTemporalSessionSemantics:
    def test_roll_advances_and_is_idempotent(self, params):
        session = TemporalSession(params, window_epochs=4, seed=1)
        assert session.epoch == 0
        session.collect("A", np.arange(32), seed=1)
        session.roll()
        assert session.epoch == 1
        assert session.roll_to(1) == 0  # already there
        assert session.roll_to(4) == 3  # empty epochs close too
        assert session.epoch == 4
        assert session.ring.epochs() == [0, 1, 2, 3]

    def test_window_wider_than_retention_refused(self, params):
        session = TemporalSession(params, window_epochs=2, seed=1)
        session.collect("A", np.arange(8), seed=1)
        with pytest.raises(ParameterError, match="retention"):
            session.window_entries(4)
        # capacity + the open epoch is answerable:
        session.roll()
        session.roll()
        assert len(session.window_entries(3)) == 3

    def test_no_closed_epochs_without_open_is_refused(self, params):
        session = TemporalSession(params, window_epochs=2, seed=1)
        session.collect("A", np.arange(8), seed=1)
        with pytest.raises(ProtocolError, match="no epochs"):
            session.window_entries(include_open=False)
        # The open bucket alone is queryable:
        assert len(session.window_entries()) == 1

    def test_tumbling_alignment(self, params):
        session, slices_a, slices_b = _filled_session(params, 5)
        # Open epoch is 5; last complete 2-block is [2, 4).
        block = session.tumbling_session(2)
        expected = JoinSession(params, pairs=session.pairs)
        for epoch in (2, 3):
            expected.collect("A", slices_a[epoch], seed=100 + epoch)
            expected.collect("B", slices_b[epoch], seed=200 + epoch)
        assert (
            block.estimate("A", "B").estimate
            == expected.estimate("A", "B").estimate
        )

    def test_tumbling_needs_one_complete_block(self, params):
        session = TemporalSession(params, window_epochs=8, seed=1)
        session.collect("A", np.arange(8), seed=1)
        session.roll()
        with pytest.raises(ProtocolError, match="tumbling"):
            session.tumbling_session(2)  # only one epoch closed
        with pytest.raises(ParameterError, match="width"):
            session.tumbling_session(0)

    def test_status_shape(self, params):
        session, _, _ = _filled_session(params, 3, window_epochs=2)
        status = session.status()
        assert status["epoch"] == 3
        assert status["window_epochs"] == 2
        assert status["closed_epochs"] == 2
        assert status["retained_epochs"] == [1, 2]
        assert status["open_reports"] == 0
        assert "A" in status["continual"]

    def test_continual_charges_on_roll(self, params):
        session, _, _ = _filled_session(params, 3)
        # Bare stream names: the subject is the stream itself.
        assert sorted(session.continual.subjects()) == ["A", "B"]
        assert session.continual.worst_case_epsilon("A") == pytest.approx(
            params.epsilon
        )
        assert session.continual.lifetime_epsilon("A") == pytest.approx(
            3 * params.epsilon
        )

    def test_namespaced_subject_extraction(self, params):
        session = TemporalSession(params, window_epochs=4, seed=1)
        session.collect("tenant/A", np.arange(32), seed=1)
        session.roll()
        assert session.continual.subjects() == ["tenant"]

    def test_note_release_counts_window_epochs(self, params):
        session, _, _ = _filled_session(params, 3)
        entries = session.window_entries(2, include_open=False)
        session.note_release("A", entries)
        assert session.continual.releases == {("A", 1): 1, ("A", 2): 1}


class TestWindowByteIdentity:
    """Window estimate == fresh window-only session, across every
    registry method's sketch shape and several window widths."""

    EPOCHS = 6

    def _shape_of(self, method: str):
        estimator = get_estimator(method)
        return getattr(estimator, "k", 4), getattr(estimator, "m", 64)

    @pytest.mark.parametrize("method", sorted(available_estimators()))
    @pytest.mark.parametrize("window", [1, 2, 3, 5])
    def test_window_equals_fresh_session(self, method, window):
        k, m = self._shape_of(method)
        params = SketchParams(k=k, m=m, epsilon=4.0)
        session, slices_a, slices_b = _filled_session(params, self.EPOCHS)

        windowed = session.window_session(window, include_open=False)
        fresh = JoinSession(params, pairs=session.pairs)
        for epoch in range(self.EPOCHS - window, self.EPOCHS):
            fresh.collect("A", slices_a[epoch], seed=100 + epoch)
            fresh.collect("B", slices_b[epoch], seed=200 + epoch)

        np.testing.assert_array_equal(
            windowed._streams["A"].raw, fresh._streams["A"].raw
        )
        np.testing.assert_array_equal(
            windowed._streams["B"].raw, fresh._streams["B"].raw
        )
        assert (
            windowed.estimate("A", "B").estimate
            == fresh.estimate("A", "B").estimate
        )
        assert windowed.num_reports("A") == fresh.num_reports("A")

    def test_open_epoch_participates(self, params):
        session, slices_a, slices_b = _filled_session(params, 3)
        session.collect("A", slices_a[0], seed=900)
        session.collect("B", slices_b[0], seed=901)
        windowed = session.window_session(2)  # open epoch + newest closed
        fresh = JoinSession(params, pairs=session.pairs)
        fresh.collect("A", slices_a[2], seed=102)
        fresh.collect("B", slices_b[2], seed=202)
        fresh.collect("A", slices_a[0], seed=900)
        fresh.collect("B", slices_b[0], seed=901)
        assert (
            windowed.estimate("A", "B").estimate
            == fresh.estimate("A", "B").estimate
        )


class TestDecayedEstimate:
    def test_no_decay_matches_window_estimate(self, params):
        session, _, _ = _filled_session(params, 4)
        plain = session.window_session(3, include_open=False)
        decayed = session.decayed_estimate(
            "A", "B", decay=(1, 1), window=3, include_open=False
        )
        # Decay 1/1 sums the same int64 accumulators the merge holds.
        assert decayed == plain.estimate("A", "B").estimate

    def test_decay_shrinks_old_heavy_windows(self, params):
        # All epochs carry identical traffic; the decayed estimate over W
        # epochs must be strictly below the undecayed one (old epochs are
        # down-weighted) but positive and deterministic.
        session, _, _ = _filled_session(params, 4)
        undecayed = session.decayed_estimate(
            "A", "B", decay=(1, 1), window=4, include_open=False
        )
        decayed = session.decayed_estimate(
            "A", "B", decay=(1, 2), window=4, include_open=False
        )
        again = session.decayed_estimate(
            "A", "B", decay=(1, 2), window=4, include_open=False
        )
        assert decayed == again  # deterministic
        assert decayed < undecayed

    def test_single_epoch_window_is_decay_free(self, params):
        session, _, _ = _filled_session(params, 3)
        plain = session.window_session(1, include_open=False)
        decayed = session.decayed_estimate(
            "A", "B", decay=(1, 2), window=1, include_open=False
        )
        assert decayed == plain.estimate("A", "B").estimate

    def test_window_answer_and_report_count(self, params):
        session, _, _ = _filled_session(params, 4)
        session.collect("A", np.arange(20), seed=7)  # the open epoch counts too
        entries = session.window_entries(3)
        estimate, num_reports = decayed_join_estimate(
            entries, params=params, pairs=session.pairs,
            stream_a="A", stream_b="B", decay=(1, 1),
        )
        merged = session.window_session(3).estimate("A", "B")
        assert estimate == merged.estimate
        assert num_reports == merged.extras["num_reports"]

    def test_refuses_an_epoch_of_another_session(self, params):
        session, slices_a, _ = _filled_session(params, 3)
        stranger = JoinSession(params, seed=99)
        stranger.collect("A", slices_a[0], seed=1)
        entries = session.window_entries(2, include_open=False)
        entries[0] = (entries[0][0], stranger.to_partial(include_timing=False))
        with pytest.raises(IncompatibleSketchError, match="hash pairs"):
            decayed_join_estimate(
                entries, params=params, pairs=session.pairs,
                stream_a="A", stream_b="B", decay=(1, 1),
            )

    def test_rejects_same_stream(self, params):
        session, _, _ = _filled_session(params, 2)
        with pytest.raises(ProtocolError, match="distinct"):
            session.decayed_estimate("A", "A", window=2, include_open=False)

    def test_rejects_absent_stream(self, params):
        session, _, _ = _filled_session(params, 2)
        with pytest.raises(ProtocolError, match="no reports"):
            session.decayed_estimate("A", "C", window=2, include_open=False)

    def test_rejects_growth_factor(self, params):
        session, _, _ = _filled_session(params, 2)
        with pytest.raises(ParameterError, match="exceed"):
            session.decayed_estimate(
                "A", "B", decay=(3, 2), window=2, include_open=False
            )


class TestWindowSweepTable:
    def test_deterministic_and_shaped(self):
        from repro.experiments.sweep import window_sweep_table

        kwargs = dict(
            epochs=2,
            trials=1,
            size=400,
            seed=11,
            k=3,
            m=32,
            decay=(1, 2),
        )
        table1 = window_sweep_table(["zipf-1.1"], [1, 2], **kwargs)
        table2 = window_sweep_table(["zipf-1.1"], [1, 2], **kwargs)
        assert table1.to_text() == table2.to_text()
        assert list(table1.headers) == [
            "dataset",
            "window",
            "truth",
            "mean_estimate",
            "ae",
            "re",
            "mean_decayed",
        ]
        assert len(table1.rows) == 2

    def test_window_validation(self):
        from repro.experiments.sweep import window_sweep_table

        with pytest.raises(ParameterError, match="window"):
            window_sweep_table(
                ["zipf-1.1"], [3], epochs=2, trials=1, size=200, seed=1
            )
