"""Chaos property suite: random fault schedules vs the byte-identity bar.

The headline invariant of the fault-tolerance layer, enforced for every
registry method and shard count: **for any absorbable fault schedule**
(every raising spec dies out within the retry budget) **the final merged
estimate is byte-identical to the fault-free run** — faults are invisible
in the output, not merely tolerated.  Unabsorbable schedules must instead
degrade *accountably*: the result names exactly the shards that were
lost and the coverage it rescaled by.

Schedules come from :meth:`FaultPlan.random`, itself a pure function of
a drawn seed, so every failing example shrinks to a replayable plan.
Run under ``HYPOTHESIS_PROFILE=ci`` this file is fully derandomized.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.plus as plus
from repro.api import get_estimator
from repro.core import LDPJoinSketchPlus, SketchParams
from repro.core.estimator import DEFAULT_SCAN_CHUNK
from repro.data.base import JoinInstance
from repro.distributed import ShardPlanner, estimate_sharded
from repro.errors import ShardLostError
from repro.reliability import FaultPlan, FaultSpec

from .conftest import zipf_values

#: Same acceptance grid as the merge-invariance suite.
SHARD_COUNTS = (1, 2, 3, 7, 16)
DOMAIN = 64
N = 1_600
EPSILON = 4.0

METHOD_CONFIGS = {
    "fagms": (dict(k=3, m=32), "hash"),
    "krr": (dict(), "hash"),
    "olh": (dict(), "hash"),
    "flh": (dict(pool_size=16), "hash"),
    "hcms": (dict(k=3, m=32), "hash"),
    "ldp-join-sketch": (dict(k=3, m=32), "hash"),
    "ldp-join-sketch-plus": (dict(k=3, m=32), "range"),
    "compass": (dict(k=3, m=32), "hash"),
}

#: Retry budget of every chaos run; random plans draw ``times <= 2``, so
#: every schedule in the absorbable tests satisfies ``absorbable_by(3)``.
RETRIES = 3
MAX_TIMES = RETRIES - 1


def _instance() -> JoinInstance:
    return JoinInstance(
        name="chaos-zipf",
        values_a=zipf_values(N, DOMAIN, 1.2, seed=21),
        values_b=zipf_values(N, DOMAIN, 1.1, seed=22),
        domain_size=DOMAIN,
    )


INSTANCE = _instance()

#: Fault-free reference runs, computed once per (method, K) cell.
_BASELINES: dict = {}


def _fields(result):
    return (result.estimate, result.uplink_bits, result.sketch_bytes)


def _run(name: str, num_shards: int, **reliability):
    options, strategy = METHOD_CONFIGS[name]
    estimator = get_estimator(name, **options)
    return estimate_sharded(
        estimator,
        INSTANCE,
        EPSILON,
        num_shards=num_shards,
        seed=77,
        strategy=strategy,
        merge="tree",
        **reliability,
    )


def _baseline(name: str, num_shards: int):
    key = (name, num_shards)
    if key not in _BASELINES:
        _BASELINES[key] = _fields(_run(name, num_shards))
    return _BASELINES[key]


class TestAbsorbableSchedulesAreByteInvisible:
    """8 methods x K in {1, 2, 3, 7, 16} x random absorbable schedules."""

    @pytest.mark.parametrize("name", sorted(METHOD_CONFIGS))
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_random_schedule_leaves_no_trace(self, name, data):
        num_shards = data.draw(st.sampled_from(SHARD_COUNTS), label="K")
        plan_seed = data.draw(st.integers(0, 2**16), label="plan_seed")
        num_faults = data.draw(st.integers(1, 3), label="num_faults")
        plan = FaultPlan.random(
            plan_seed,
            points=("shard.collect",),
            num_faults=num_faults,
            num_shards=num_shards,
            max_times=MAX_TIMES,
            kinds=("error", "crash"),
        )
        assert plan.absorbable_by(RETRIES)
        chaotic = _run(name, num_shards, retries=RETRIES, fault_plan=plan)
        assert _fields(chaotic) == _baseline(name, num_shards), (
            f"{name} K={num_shards}: absorbable plan {plan.to_dict()} "
            f"changed the result"
        )

    @pytest.mark.parametrize("name", sorted(METHOD_CONFIGS))
    def test_replaying_one_plan_is_deterministic(self, name):
        """The same plan payload produces the same faulted run twice."""
        plan_payload = FaultPlan.random(
            5, points=("shard.collect",), num_faults=2, num_shards=3,
            max_times=MAX_TIMES,
        ).to_dict()
        first = _run(
            name, 3, retries=RETRIES, fault_plan=FaultPlan.from_dict(plan_payload)
        )
        second = _run(
            name, 3, retries=RETRIES, fault_plan=FaultPlan.from_dict(plan_payload)
        )
        assert _fields(first) == _fields(second)


class TestUnabsorbableSchedulesDegradeAccountably:
    """Past-budget faults must surface in the loss ledger, exactly."""

    @pytest.mark.parametrize(
        "name", ["ldp-join-sketch", "krr", "ldp-join-sketch-plus"]
    )
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_lost_shards_are_accounted(self, name, data):
        num_shards = data.draw(st.sampled_from((2, 3, 7)), label="K")
        doomed = sorted(
            data.draw(
                st.sets(
                    st.integers(0, num_shards - 1),
                    min_size=1,
                    max_size=num_shards - 1,
                ),
                label="doomed",
            )
        )
        plan = FaultPlan(
            [
                FaultSpec(
                    point="shard.collect", kind="error", times=99, match={"shard": s}
                )
                for s in doomed
            ],
            name="doomed-shards",
        )
        assert not plan.absorbable_by(RETRIES)
        try:
            result = _run(
                name, num_shards, retries=RETRIES, fault_plan=plan, degraded=True
            )
        except ShardLostError as error:
            # Degenerate split: the doomed shards held every client of a
            # stream, so there is no surviving coverage to rescale.  The
            # loss is still accounted, just as a typed error.
            assert tuple(sorted(error.lost)) == tuple(doomed)
            return
        ledger = result.extras["degraded"]
        assert ledger["shards_lost"] == doomed
        assert 0.0 < ledger["coverage"]["A"] <= 1.0
        assert 0.0 < ledger["coverage"]["B"] <= 1.0
        assert ledger["bound_factor"] >= 1.0

    @pytest.mark.parametrize("name", ["ldp-join-sketch", "krr"])
    def test_losing_every_shard_is_typed(self, name):
        plan = FaultPlan([FaultSpec(point="shard.collect", kind="error", times=99)])
        with pytest.raises(ShardLostError) as excinfo:
            _run(name, 2, retries=2, fault_plan=plan, degraded=True)
        assert excinfo.value.lost == (0, 1)


class TestPlusWideDomainChaos:
    """LDPJoinSketch+ at an even k over a domain wider than one scan chunk.

    The phase-1 scan takes its tie branch and crosses chunk boundaries,
    which the k=3, 64-value grid above never does.
    """

    DOMAIN = DEFAULT_SCAN_CHUNK + 1_000
    INSTANCE = JoinInstance(
        name="chaos-zipf-wide",
        values_a=zipf_values(N, DOMAIN, 1.2, seed=23),
        values_b=zipf_values(N, DOMAIN, 1.1, seed=24),
        domain_size=DOMAIN,
    )

    def _run(self, num_shards, **reliability):
        return estimate_sharded(
            get_estimator("ldp-join-sketch-plus", k=4, m=32),
            self.INSTANCE,
            EPSILON,
            num_shards=num_shards,
            seed=77,
            strategy="range",
            merge="tree",
            **reliability,
        )

    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_random_schedule_leaves_no_trace(self, data):
        num_shards = data.draw(st.sampled_from((2, 3, 7)), label="K")
        plan = FaultPlan.random(
            data.draw(st.integers(0, 2**16), label="plan_seed"),
            points=("shard.collect",),
            num_faults=2,
            num_shards=num_shards,
            max_times=MAX_TIMES,
            kinds=("error", "crash"),
        )
        key = ("plus-wide", num_shards)
        if key not in _BASELINES:
            _BASELINES[key] = _fields(self._run(num_shards))
        chaotic = self._run(num_shards, retries=RETRIES, fault_plan=plan)
        assert _fields(chaotic) == _BASELINES[key]

    @pytest.mark.parametrize("lost", [0, 2])
    def test_round2_loss_reads_mass_from_rebuilt_sketches(self, lost, monkeypatch):
        """A shard lost after the FI broadcast leaves the broadcast set in
        place, but the frequent mass must describe the survivors only: it
        comes from their rebuilt phase-1 sketches, not from the scan."""
        # Two planted heavy values, and enough phase-1 users that the
        # frequent set is those values and the mass stays below the
        # survivors' sample size (a clipped mass could not tell the two
        # read-outs apart).
        rng = np.random.default_rng(25)
        n = 24_000

        def planted(seed):
            tail = zipf_values(n - n // 4 - n // 8, self.DOMAIN, 1.1, seed=seed)
            values = np.concatenate([np.full(n // 4, 5), np.full(n // 8, 9_000), tail])
            return rng.permutation(values)

        instance = JoinInstance("chaos-planted", planted(26), planted(27), self.DOMAIN)
        options = dict(k=4, m=256, sample_rate=0.2, threshold=0.1)
        scans = []
        scan = plus.find_frequent_items

        def spy(sketches, *args, **kwargs):
            result = scan(sketches, *args, **kwargs)
            scans.append((sketches, result))
            return result

        monkeypatch.setattr(plus, "find_frequent_items", spy)

        def lose(round_):
            spec = FaultSpec(
                point="shard.collect",
                kind="error",
                times=99,
                match={"shard": lost, "round": round_},
            )
            return estimate_sharded(
                get_estimator("ldp-join-sketch-plus", **options),
                instance,
                EPSILON,
                num_shards=3,
                seed=77,
                strategy="range",
                retries=RETRIES,
                fault_plan=FaultPlan([spec]),
                degraded=True,
            )

        # A round-1 loss scans the survivors' sketches: the same partials
        # a round-2 loss rebuilds (each shard draws from its own seed).
        lose(1)
        result = lose(2)
        (survivors, _), (everyone, broadcast) = scans
        assert result.extras["degraded"]["shards_lost"] == [lost]
        assert everyone[0].num_reports > survivors[0].num_reports
        np.testing.assert_array_equal(result.extras["frequent_items"], broadcast.items)
        assert {5, 9_000} <= set(broadcast.items.tolist())

        protocol = LDPJoinSketchPlus(SketchParams(k=4, m=256, epsilon=EPSILON))
        planner = ShardPlanner(3, strategy="range")
        for index, (label, values) in enumerate(
            (("a", instance.values_a), ("b", instance.values_b))
        ):
            sizes = [split.size for split in planner.split(values)]
            covered = sum(sizes) - sizes[lost]
            sample_size = survivors[index].num_reports
            rebuilt = float(np.sum(survivors[index].frequencies(broadcast.items)))
            assert 0.0 < rebuilt < sample_size
            expected = protocol._population_mass(rebuilt, covered, sample_size)
            stale = protocol._population_mass(broadcast.masses[index], covered, sample_size)
            assert result.extras[f"high_freq_mass_{label}"] == expected
            assert expected != stale


class TestSweepChaos:
    """Random schedules inside pool units and at the worker entry."""

    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_absorbable_worker_faults_are_byte_invisible(self, data):
        from repro.experiments.sweep import plan_grid, run_sweep

        def make_plan():
            # Two units, so the sweep runs on the pool.
            return plan_grid(
                [INSTANCE.name],
                {"LDPJoinSketch": get_estimator("ldp-join-sketch", k=3, m=32)},
                [2.0, 8.0],
                2,
                seed=55,
                shards=2,
                instances={INSTANCE.name: INSTANCE},
            )

        key = "sweep-baseline"
        if key not in _BASELINES:
            _BASELINES[key] = [
                [r.estimate for r in block]
                for block in run_sweep(make_plan(), workers=2)
            ]
        plan_seed = data.draw(st.integers(0, 2**16), label="plan_seed")
        draw = dict(max_times=MAX_TIMES, kinds=("error", "crash"))
        in_unit = FaultPlan.random(
            plan_seed, points=("shard.collect",), num_shards=2, **draw
        )
        # A sweep.unit context carries no shard, so these specs match
        # every unit.
        at_entry = FaultPlan.random(plan_seed + 1, points=("sweep.unit",), **draw)
        plan = FaultPlan(in_unit.specs + at_entry.specs, seed=plan_seed)
        assert plan.absorbable_by(RETRIES)
        got = [
            [r.estimate for r in block]
            for block in run_sweep(
                make_plan(), workers=2, retries=RETRIES, fault_plan=plan
            )
        ]
        assert got == _BASELINES[key], (
            f"sweep chaos plan {plan.to_dict()} changed the records"
        )
