"""Unit tests for the fault-tolerance layer (repro.reliability).

Covers the fault-injection harness (FaultPlan / fault_point), the retry
policy (deterministic backoff, attempt ledgers), checkpoint corruption
recovery, the partial-aggregate content checksum, degraded merges, and
the sweep pool's broken-worker recovery.  The chaos property suite lives
in ``test_reliability_chaos.py``.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.api import JoinSession, get_estimator
from repro.core import SketchParams
from repro.data.base import JoinInstance
from repro.distributed import (
    PARTIAL_VERSION,
    PartialAggregate,
    ShardCheckpoint,
    content_checksum,
    estimate_sharded,
    ingest_with_checkpoint,
    merge_sequential,
    merge_tree,
    prepare_shard_run,
)
from repro.errors import (
    CheckpointCorruptError,
    InjectedCrashError,
    InjectedFaultError,
    ParameterError,
    PartialIntegrityError,
    RetryExhaustedError,
    ShardLostError,
    SweepWorkerLostError,
)
from repro.reliability import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    active_plan,
    arm,
    as_fault_plan,
    as_retry_policy,
    attempt_scope,
    current_attempt,
    disarm,
    fault_point,
    injected,
)

from .conftest import zipf_values

DOMAIN = 64
EPSILON = 4.0


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with no plan armed (process-wide state)."""
    disarm()
    yield
    disarm()


@pytest.fixture()
def instance() -> JoinInstance:
    return JoinInstance(
        name="rel-zipf",
        values_a=zipf_values(1_200, DOMAIN, 1.2, seed=31),
        values_b=zipf_values(1_200, DOMAIN, 1.1, seed=32),
        domain_size=DOMAIN,
    )


# ----------------------------------------------------------------------
# FaultSpec / FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            FaultSpec(point="x", kind="meteor-strike")
        with pytest.raises(ParameterError):
            FaultSpec(point="x", times=0)
        with pytest.raises(ParameterError):
            FaultSpec(point="x", kind="latency", delay=-1.0)

    def test_fault_point_is_noop_without_plan(self):
        assert active_plan() is None
        assert fault_point("anywhere", shard=3) is None

    def test_error_spec_fires_then_dies_out_by_hit_counter(self):
        plan = arm(FaultPlan([FaultSpec(point="p", kind="error", times=2)]))
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                fault_point("p")
        assert fault_point("p") is None  # hit budget spent
        arm(plan)  # re-arming resets the counters
        with pytest.raises(InjectedFaultError):
            fault_point("p")

    def test_attempt_context_overrides_hit_counter(self):
        arm(FaultPlan([FaultSpec(point="p", kind="error", times=2)]))
        # Fires as long as attempt < times, however often it is consulted;
        # from attempt `times` on it never fires again.
        for _ in range(3):
            with pytest.raises(InjectedFaultError):
                fault_point("p", attempt=0)
        with pytest.raises(InjectedFaultError):
            fault_point("p", attempt=1)
        assert fault_point("p", attempt=2) is None
        with attempt_scope(5):
            assert current_attempt() == 5
            assert fault_point("p") is None

    def test_match_restricts_firing(self):
        arm(FaultPlan([FaultSpec(point="p", match={"shard": 2})]))
        assert fault_point("p", shard=1) is None
        with pytest.raises(InjectedFaultError) as excinfo:
            fault_point("p", shard=2)
        assert excinfo.value.point == "p"
        assert excinfo.value.context["shard"] == 2

    def test_crash_spec_raises_typed_crash(self):
        arm(FaultPlan([FaultSpec(point="p", kind="crash")]))
        with pytest.raises(InjectedCrashError):
            fault_point("p")

    def test_corruption_specs_are_returned_not_raised(self):
        spec = FaultSpec(point="write", kind="torn-write")
        arm(FaultPlan([spec]))
        assert fault_point("write") == spec
        assert fault_point("write") is None  # single hit spent

    def test_injected_scopes_and_restores(self):
        outer = FaultPlan([FaultSpec(point="o")], name="outer")
        inner = FaultPlan([FaultSpec(point="i")], name="inner")
        arm(outer)
        with injected(inner):
            assert active_plan() is inner
            with injected(None):  # None is a no-op passthrough
                assert active_plan() is inner
        assert active_plan() is outer

    def test_plan_round_trips_through_json(self, tmp_path):
        plan = FaultPlan(
            [
                FaultSpec(point="shard.collect", kind="crash", times=2, match={"shard": 1}),
                FaultSpec(point="checkpoint.flush", kind="torn-write"),
                FaultSpec(point="p", kind="latency", delay=0.25),
            ],
            name="round-trip",
            seed=9,
            hard_crashes=True,
        )
        path = plan.save(tmp_path / "plan.json")
        loaded = FaultPlan.load(path)
        assert loaded.to_dict() == plan.to_dict()
        with pytest.raises(ParameterError):
            FaultPlan.from_dict({"format": "something-else"})
        bad_version = dict(plan.to_dict(), version=99)
        with pytest.raises(ParameterError):
            FaultPlan.from_dict(bad_version)

    def test_as_fault_plan_accepts_plan_or_saved_path(self, tmp_path):
        plan = FaultPlan([FaultSpec(point="shard.collect", kind="error")], seed=3)
        path = plan.save(tmp_path / "plan.json")
        assert as_fault_plan(None) is None
        assert as_fault_plan(plan) is plan
        assert as_fault_plan(path).to_dict() == plan.to_dict()
        assert as_fault_plan(str(path)).to_dict() == plan.to_dict()

    def test_random_plans_are_seed_deterministic(self):
        kwargs = dict(
            points=("shard.collect", "sweep.unit"),
            num_faults=3,
            num_shards=7,
            max_times=2,
        )
        first = FaultPlan.random(123, **kwargs)
        again = FaultPlan.random(123, **kwargs)
        other = FaultPlan.random(124, **kwargs)
        assert first.to_dict() == again.to_dict()
        assert other.to_dict() != first.to_dict()

    def test_absorbable_by(self):
        plan = FaultPlan(
            [
                FaultSpec(point="p", kind="error", times=2),
                FaultSpec(point="q", kind="torn-write", times=99),  # never raises
            ]
        )
        assert not plan.absorbable_by(2)
        assert plan.absorbable_by(3)

    def test_errors_survive_pickling(self):
        # Worker exceptions cross the process-pool boundary pickled.
        for error in (
            InjectedFaultError("p", {"shard": 3}),
            InjectedCrashError("p", {}),
            CheckpointCorruptError("/tmp/x", "torn"),
            RetryExhaustedError("op", ()),
            ShardLostError("lost", lost=(1, 2)),
            SweepWorkerLostError("pool died", cells=("a/b/eps=1",)),
        ):
            clone = pickle.loads(pickle.dumps(error))
            assert type(clone) is type(error)
            assert str(clone) == str(error)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_success_passes_through(self):
        assert RetryPolicy(3).call(lambda: 42) == 42

    def test_validation(self):
        with pytest.raises(ParameterError):
            RetryPolicy(0)
        with pytest.raises(ParameterError):
            RetryPolicy(2, backoff=0.5)
        with pytest.raises(ParameterError):
            RetryPolicy(2, jitter=1.5)
        with pytest.raises(ParameterError):
            RetryPolicy(2, deadline=0)

    def test_absorbs_retryable_errors(self):
        calls = []

        def flaky():
            calls.append(len(calls))
            if len(calls) < 3:
                raise InjectedFaultError("p", {})
            return "done"

        retried = []
        result = RetryPolicy(4).call(flaky, on_retry=retried.append)
        assert result == "done"
        assert calls == [0, 1, 2]
        assert [r.attempt for r in retried] == [0, 1]
        assert all(r.error_type == "InjectedFaultError" for r in retried)

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ParameterError("config, not weather")

        with pytest.raises(ParameterError):
            RetryPolicy(5).call(broken)
        assert len(calls) == 1

    def test_exhaustion_carries_the_ledger(self):
        def always_fails():
            raise InjectedFaultError("p", {"shard": 0})

        with pytest.raises(RetryExhaustedError) as excinfo:
            RetryPolicy(3).call(always_fails, operation="collect shard 0")
        error = excinfo.value
        assert error.operation == "collect shard 0"
        assert len(error.attempts) == 3
        assert [a.attempt for a in error.attempts] == [0, 1, 2]
        assert isinstance(error.__cause__, InjectedFaultError)

    def test_reset_runs_before_every_reattempt(self):
        resets = []
        attempts = []

        def flaky():
            attempts.append(current_attempt())
            if len(attempts) < 3:
                raise InjectedFaultError("p", {})
            return True

        assert RetryPolicy(3).call(flaky, reset=lambda: resets.append(len(attempts)))
        assert resets == [1, 2]  # after the 1st and 2nd failures
        assert attempts == [0, 1, 2]  # attempt_scope surrounds each try

    def test_backoff_schedule_is_deterministic(self):
        policy = RetryPolicy(5, base_delay=0.8, backoff=2.0, max_delay=2.0, seed=3)
        assert policy.delay_for(0) == 0.0
        assert policy.delay_for(1) == 0.8
        assert policy.delay_for(2) == 1.6
        assert policy.delay_for(3) == 2.0  # capped
        twin = RetryPolicy(5, base_delay=0.8, backoff=2.0, max_delay=2.0, seed=3)
        mine = [policy._jittered(policy.delay_for(i)) for i in range(1, 5)]
        theirs = [twin._jittered(twin.delay_for(i)) for i in range(1, 5)]
        assert mine == theirs  # jitter comes from the seeded stream
        assert all(0.4 <= d <= 2.0 for d in mine)  # jitter=0.5 shaves <= half

    def test_to_dict_round_trips(self):
        policy = RetryPolicy(4, base_delay=0.1, backoff=3.0, jitter=0.2, max_delay=9.0)
        clone = RetryPolicy(**policy.to_dict())
        assert clone.to_dict() == policy.to_dict()

    def test_as_retry_policy_accepts_count_policy_and_payload(self):
        policy = RetryPolicy(4, base_delay=0.1, backoff=3.0, jitter=0.2, max_delay=9.0)
        assert as_retry_policy(None) is None
        assert as_retry_policy(policy) is policy
        assert as_retry_policy(5).max_attempts == 5
        # The payload a pool worker receives rebuilds the same policy.
        assert as_retry_policy(policy.to_dict()).to_dict() == policy.to_dict()
        with pytest.raises(ParameterError):
            as_retry_policy(0)


# ----------------------------------------------------------------------
# Checkpoint corruption -> typed error -> cold start
# ----------------------------------------------------------------------
def _cohort_fixture():
    params = SketchParams(k=3, m=32, epsilon=2.0)
    cohorts = [zipf_values(200, DOMAIN, 1.3, seed=40 + i) for i in range(4)]
    seeds = [500 + i for i in range(4)]
    return params, cohorts, seeds


def _fresh_shard(params, seed=17):
    coordinator = JoinSession(params, seed=seed)
    return coordinator.spawn_shard()


def _deterministic_counters(partial):
    """Counters minus wall-clock accounting."""
    return {k: v for k, v in partial.counters.items() if "seconds" not in k}


class TestCheckpointDurability:
    """Regression: flush must fsync the data before publishing the name.

    The original flush fsynced the temp file only on request and never
    fsynced the directory — so a crash shortly after
    ``os.replace`` could surface the *new* name with torn or empty
    contents (data blocks never reached disk) or forget the rename
    entirely.  Both orderings are now load-bearing for the replication
    layer's byte-identical recovery story.
    """

    def _flush_events(self, tmp_path, monkeypatch):
        import os as os_module
        import stat

        from repro.distributed import checkpoint as checkpoint_module

        events = []
        real_fsync = os_module.fsync
        real_replace = os_module.replace

        def spy_fsync(fd):
            kind = "dir" if stat.S_ISDIR(os_module.fstat(fd).st_mode) else "file"
            events.append(f"fsync-{kind}")
            return real_fsync(fd)

        def spy_replace(src, dst):
            events.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(checkpoint_module.os, "fsync", spy_fsync)
        monkeypatch.setattr(checkpoint_module.os, "replace", spy_replace)
        params, _, _ = _cohort_fixture()
        partial = _fresh_shard(params).to_partial()
        checkpoint = ShardCheckpoint(tmp_path / "shard-0.ckpt")
        checkpoint.flush(partial, cursor=1)
        assert checkpoint.load() is not None
        return events

    def test_flush_fsyncs_file_before_rename_and_directory_after(
        self, tmp_path, monkeypatch
    ):
        events = self._flush_events(tmp_path, monkeypatch)
        assert events == ["fsync-file", "replace", "fsync-dir"]


class TestCheckpointCorruption:
    def test_garbage_file_raises_typed_error(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text('{"format": "repro/shard-checkpoint", "ver')  # torn
        with pytest.raises(CheckpointCorruptError) as excinfo:
            ShardCheckpoint(path).load()
        assert "invalid JSON" in excinfo.value.reason
        path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointCorruptError):
            ShardCheckpoint(path).load()

    def test_wrong_format_is_a_config_error_not_corruption(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(ParameterError) as excinfo:
            ShardCheckpoint(path).load()
        assert not isinstance(excinfo.value, CheckpointCorruptError)

    def test_torn_write_fault_corrupts_then_cold_start_recovers(self, tmp_path):
        params, cohorts, seeds = _cohort_fixture()
        checkpoint = ShardCheckpoint(tmp_path / "shard-0.json")

        # Clean reference run, no checkpoint involved at the end state.
        clean = ingest_with_checkpoint(
            _fresh_shard(params), "A", cohorts, seeds, ShardCheckpoint(tmp_path / "c.json")
        )

        # Tear the *last* flush, then reload: the file is corrupt.
        tear = FaultPlan(
            [FaultSpec(point="checkpoint.flush", kind="torn-write", match={"cursor": 4})]
        )
        with injected(tear):
            ingest_with_checkpoint(_fresh_shard(params), "A", cohorts, seeds, checkpoint)
        with pytest.raises(CheckpointCorruptError):
            checkpoint.load()

        # The restarted aggregator downgrades to a cold start: the final
        # partial is byte-identical to the clean run, and the recovery is
        # recorded in its meta.
        recovered = ingest_with_checkpoint(
            _fresh_shard(params), "A", cohorts, seeds, checkpoint
        )
        for key in clean.arrays:
            np.testing.assert_array_equal(recovered.arrays[key], clean.arrays[key])
        assert _deterministic_counters(recovered) == _deterministic_counters(clean)
        note = recovered.meta["checkpoint_recovery"][str(checkpoint.path)]
        assert note["cold_start"] is True
        assert note["cohorts_replayed"] == len(cohorts)
        assert "invalid JSON" in note["reason"]

    def test_warm_resume_is_byte_identical(self, tmp_path):
        params, cohorts, seeds = _cohort_fixture()
        checkpoint = ShardCheckpoint(tmp_path / "shard-0.json")
        clean = ingest_with_checkpoint(
            _fresh_shard(params), "A", cohorts, seeds, ShardCheckpoint(tmp_path / "c.json")
        )
        # Die after cohort 2 (fault on the third ingest), then restart.
        crash = FaultPlan([FaultSpec(point="checkpoint.ingest", match={"cohort": 2})])
        with injected(crash):
            with pytest.raises(InjectedFaultError):
                ingest_with_checkpoint(
                    _fresh_shard(params), "A", cohorts, seeds, checkpoint
                )
        _, cursor = checkpoint.load()
        assert cursor == 2
        resumed = ingest_with_checkpoint(
            _fresh_shard(params), "A", cohorts, seeds, checkpoint
        )
        for key in clean.arrays:
            np.testing.assert_array_equal(resumed.arrays[key], clean.arrays[key])
        assert _deterministic_counters(resumed) == _deterministic_counters(clean)
        assert "checkpoint_recovery" not in resumed.meta


# ----------------------------------------------------------------------
# PartialAggregate content checksum
# ----------------------------------------------------------------------
def _small_partial():
    params = SketchParams(k=3, m=16, epsilon=2.0)
    shard = _fresh_shard(params)
    shard.collect("A", zipf_values(300, DOMAIN, 1.3, seed=50), seed=51)
    return shard.to_partial()


class TestPartialChecksum:
    def test_round_trip_verifies(self):
        partial = _small_partial()
        payload = partial.to_dict()
        assert payload["version"] == PARTIAL_VERSION
        assert isinstance(payload["checksum"], int)
        clone = type(partial).from_dict(payload)
        for key in partial.arrays:
            np.testing.assert_array_equal(clone.arrays[key], partial.arrays[key])

    def test_bit_flip_is_rejected(self):
        partial = _small_partial()
        payload = json.loads(json.dumps(partial.to_dict()))
        name = sorted(payload["arrays"])[0]
        data = payload["arrays"][name]["data"]["data"]
        flipped = ("A" if data[0] != "A" else "B") + data[1:]
        payload["arrays"][name]["data"]["data"] = flipped
        with pytest.raises(PartialIntegrityError):
            type(partial).from_dict(payload)

    def test_truncation_is_rejected(self):
        partial = _small_partial()
        payload = json.loads(json.dumps(partial.to_dict()))
        name = sorted(payload["arrays"])[0]
        entry = payload["arrays"][name]["data"]
        entry["data"] = entry["data"][:-8]
        with pytest.raises(PartialIntegrityError):
            type(partial).from_dict(payload)

    def test_version_1_payload_still_loads(self):
        partial = _small_partial()
        payload = json.loads(json.dumps(partial.to_dict()))
        payload["version"] = 1
        del payload["checksum"]  # v1 payloads predate the checksum
        clone = type(partial).from_dict(payload)
        for key in partial.arrays:
            np.testing.assert_array_equal(clone.arrays[key], partial.arrays[key])

    def test_future_version_is_rejected(self):
        payload = _small_partial().to_dict()
        payload["version"] = PARTIAL_VERSION + 1
        with pytest.raises(ParameterError):
            PartialAggregate.from_dict(payload)

    @pytest.mark.parametrize(
        "mangle",
        [
            pytest.param(lambda p: p.update(fingerprint=5), id="int-fingerprint"),
            pytest.param(lambda p: p.pop("method"), id="missing-method"),
            pytest.param(
                lambda p: next(iter(p["arrays"].values())).update(dtype="garbage"),
                id="garbage-dtype",
            ),
            pytest.param(
                lambda p: p["arrays"].update({next(iter(p["arrays"])): [1, 2]}),
                id="non-mapping-array-entry",
            ),
            pytest.param(lambda p: p.update(counters=[1, 2]), id="list-counters"),
            pytest.param(lambda p: p.update(meta="abc"), id="str-meta"),
            pytest.param(
                lambda p: p.update(version=1, arrays="xyz") or p.pop("checksum"),
                id="v1-str-arrays",
            ),
        ],
    )
    def test_malformed_payload_raises_the_typed_error(self, mangle):
        """Shape errors are typed even when the checksum was recomputed."""
        payload = json.loads(json.dumps(_small_partial().to_dict()))
        mangle(payload)
        arrays = payload["arrays"]
        if isinstance(arrays, dict) and all(isinstance(e, dict) for e in arrays.values()):
            payload["checksum"] = content_checksum(arrays)
        with pytest.raises(PartialIntegrityError):
            PartialAggregate.from_dict(payload)


# ----------------------------------------------------------------------
# Retry + degradation on sharded estimation
# ----------------------------------------------------------------------
class TestShardedFaultTolerance:
    def test_absorbable_faults_are_byte_invisible(self, instance):
        estimator = get_estimator("ldp-join-sketch", k=3, m=32)
        baseline = estimate_sharded(
            estimator, instance, EPSILON, num_shards=3, seed=77, merge="tree"
        )
        plan = FaultPlan(
            [FaultSpec(point="shard.collect", kind="error", times=2, match={"shard": 1})]
        )
        retried = estimate_sharded(
            estimator,
            instance,
            EPSILON,
            num_shards=3,
            seed=77,
            merge="tree",
            retries=3,
            fault_plan=plan,
        )
        assert retried.estimate == baseline.estimate
        assert retried.uplink_bits == baseline.uplink_bits

    def test_unabsorbable_fault_without_degraded_raises(self, instance):
        estimator = get_estimator("ldp-join-sketch", k=3, m=32)
        plan = FaultPlan(
            [FaultSpec(point="shard.collect", kind="error", times=9, match={"shard": 1})]
        )
        with pytest.raises(RetryExhaustedError):
            estimate_sharded(
                estimator,
                instance,
                EPSILON,
                num_shards=3,
                seed=77,
                retries=2,
                fault_plan=plan,
            )

    def test_degraded_merge_rescales_and_records_loss(self, instance):
        estimator = get_estimator("ldp-join-sketch", k=3, m=32)
        plan = FaultPlan(
            [FaultSpec(point="shard.collect", kind="error", times=9, match={"shard": 2})]
        )
        result = estimate_sharded(
            estimator,
            instance,
            EPSILON,
            num_shards=3,
            seed=77,
            retries=2,
            fault_plan=plan,
            degraded=True,
        )
        ledger = result.extras["degraded"]
        assert ledger["shards_lost"] == [2]
        assert 0.0 < ledger["coverage"]["A"] < 1.0
        assert 0.0 < ledger["coverage"]["B"] < 1.0
        assert ledger["rescale"] > 1.0
        assert ledger["bound_factor"] >= 1.0
        assert np.isfinite(result.estimate)

    def test_all_shards_lost_raises_even_degraded(self, instance):
        estimator = get_estimator("krr")
        plan = FaultPlan([FaultSpec(point="shard.collect", kind="error", times=9)])
        with pytest.raises(ShardLostError) as excinfo:
            estimate_sharded(
                estimator,
                instance,
                EPSILON,
                num_shards=2,
                seed=5,
                retries=1,
                fault_plan=plan,
                degraded=True,
            )
        assert excinfo.value.lost == (0, 1)

    def test_merge_refuses_missing_partials_outside_degraded(self, instance):
        estimator = get_estimator("ldp-join-sketch", k=3, m=32)
        run = prepare_shard_run(estimator, instance, EPSILON, num_shards=3, seed=7)
        partials = run.collect_all()
        partials[1] = None
        with pytest.raises(ShardLostError) as excinfo:
            merge_tree(partials)
        assert excinfo.value.lost == (1,)
        with pytest.raises(ShardLostError):
            merge_sequential(partials)
        survivors = merge_tree(partials, degraded=True)
        assert survivors is not None


# ----------------------------------------------------------------------
# Sweep pool recovery
# ----------------------------------------------------------------------
def _sweep_plan(instance):
    """Two sharded units (one per epsilon): enough to run on the pool."""
    from repro.experiments.sweep import plan_grid

    return plan_grid(
        [instance.name],
        {"LDPJoinSketch": get_estimator("ldp-join-sketch", k=3, m=32)},
        [2.0, 8.0],
        2,
        seed=55,
        shards=2,
        instances={instance.name: instance},
    )


def _sweep_estimates(instance, **kwargs):
    from repro.experiments.sweep import run_sweep

    return [
        [r.estimate for r in block]
        for block in run_sweep(_sweep_plan(instance), **kwargs)
    ]


class TestSweepFaultRecovery:
    def test_worker_task_faults_are_absorbed_byte_identically(self, instance):
        """A fault inside a unit's sharded run is retried as the whole unit."""
        baseline = _sweep_estimates(instance, workers=1)
        plan = FaultPlan(
            [FaultSpec(point="shard.collect", kind="error", times=1, match={"shard": 1})]
        )
        for workers in (1, 2):
            got = _sweep_estimates(
                instance, workers=workers, retries=3, fault_plan=plan
            )
            assert got == baseline, f"workers={workers}"

    def test_worker_death_recovers_byte_identically(self, instance):
        baseline = _sweep_estimates(instance, workers=1)
        death = FaultPlan(
            [FaultSpec(point="sweep.unit", kind="crash", times=1, match={"unit": 0})],
            hard_crashes=True,  # os._exit in the worker: a real BrokenProcessPool
        )
        got = _sweep_estimates(instance, workers=2, retries=3, fault_plan=death)
        assert got == baseline

    def test_exhausted_budget_names_the_lost_cells(self, instance):
        plan = FaultPlan(
            [FaultSpec(point="sweep.unit", kind="error", times=2, match={"unit": 0})]
        )
        with pytest.raises(SweepWorkerLostError) as excinfo:
            _sweep_estimates(instance, workers=2, retries=2, fault_plan=plan)
        assert excinfo.value.cells == (f"{instance.name}/LDPJoinSketch/eps=2",)
        # The parent resubmitted once before giving up: the last failure
        # is the unit's second attempt.
        assert excinfo.value.__cause__.context["attempt"] == 1
        with pytest.raises(RetryExhaustedError):
            _sweep_estimates(instance, workers=1, retries=2, fault_plan=plan)
        # One more attempt absorbs the same schedule.
        assert _sweep_estimates(
            instance, workers=2, retries=3, fault_plan=plan
        ) == _sweep_estimates(instance, workers=1)


    def test_lost_grouped_unit_names_every_epsilon(self, instance):
        from repro.experiments.sweep import plan_grid, run_sweep

        plan = plan_grid(
            [instance.name],
            {
                "LDPJoinSketch": get_estimator("ldp-join-sketch", k=3, m=32),
                "FAGMS": get_estimator("fagms", k=3, m=32),
            },
            [2.0, 8.0],
            2,
            seed=55,
            trial_axis="grouped",
            instances={instance.name: instance},
        )
        fault = FaultPlan([FaultSpec(point="sweep.unit", kind="error", match={"unit": 0})])
        with pytest.raises(SweepWorkerLostError) as excinfo:
            run_sweep(plan, workers=2, fault_plan=fault)
        assert excinfo.value.cells == (f"{instance.name}/LDPJoinSketch/eps=2,8",)


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
class TestReliabilityCLI:
    def test_sweep_parser_accepts_reliability_flags(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(
            ["sweep", "--retries", "3", "--fault-plan", "plan.json"]
        )
        assert args.retries == 3
        assert str(args.fault_plan) == "plan.json"

    #: A tiny two-unit sweep (the README's chaos command at small scale).
    SWEEP_ARGS = [
        "sweep", "--scale", "0.0005", "--trials", "2", "--k", "3", "--m", "32",
        "--epsilons", "1", "4", "--shards", "2",
    ]

    @staticmethod
    def _sweep_table(capsys) -> str:
        out = capsys.readouterr().out
        return out[: out.index("[sweep completed")]

    def test_sweep_fault_plan_is_armed(self, tmp_path):
        from repro.experiments.cli import main

        always = FaultPlan([FaultSpec(point="sweep.unit", kind="error", times=99)])
        path = always.save(tmp_path / "plan.json")
        with pytest.raises(InjectedFaultError):
            main(self.SWEEP_ARGS + ["--fault-plan", str(path)])
        with pytest.raises(SweepWorkerLostError):
            main(self.SWEEP_ARGS + ["--workers", "2", "--fault-plan", str(path)])

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sweep_retries_absorb_the_fault_plan(self, tmp_path, capsys, workers):
        from repro.experiments.cli import main

        once = FaultPlan([FaultSpec(point="sweep.unit", kind="error", times=1)])
        path = once.save(tmp_path / "plan.json")
        args = self.SWEEP_ARGS + ["--workers", workers]
        assert main(args) == 0
        clean = self._sweep_table(capsys)
        with pytest.raises((InjectedFaultError, SweepWorkerLostError)):
            main(args + ["--fault-plan", str(path)])
        assert main(args + ["--retries", "3", "--fault-plan", str(path)]) == 0
        assert self._sweep_table(capsys) == clean

    def test_shard_run_with_fault_plan_and_retries(self, tmp_path, capsys):
        from repro.experiments.cli import main

        plan = FaultPlan(
            [FaultSpec(point="shard.collect", kind="error", times=1, match={"shard": 1})]
        )
        path = plan.save(tmp_path / "plan.json")
        code = main(
            [
                "shard",
                "run",
                "--dataset",
                "zipf-1.1",
                "--method",
                "ldp-join-sketch",
                "--shards",
                "3",
                "--scale",
                "0.0005",
                "--k",
                "3",
                "--m",
                "32",
                "--retries",
                "3",
                "--fault-plan",
                str(path),
            ]
        )
        assert code == 0  # absorbed faults keep tree == sequential
        assert "tree-merged == single-aggregator: True" in capsys.readouterr().out

    def test_shard_run_degraded_reports_loss(self, tmp_path, capsys):
        from repro.experiments.cli import main

        plan = FaultPlan(
            [FaultSpec(point="shard.collect", kind="error", times=9, match={"shard": 2})]
        )
        path = plan.save(tmp_path / "plan.json")
        code = main(
            [
                "shard",
                "run",
                "--dataset",
                "zipf-1.1",
                "--method",
                "ldp-join-sketch",
                "--shards",
                "3",
                "--scale",
                "0.0005",
                "--k",
                "3",
                "--m",
                "32",
                "--retries",
                "2",
                "--fault-plan",
                str(path),
                "--degraded",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded: lost shard(s) [2]" in out
