"""Chaos suite for the online aggregation service (:mod:`repro.service`).

The service's headline claim: kill the process at any instant — between
batches, mid ``write(2)``, mid replay — restart it, and the next
published snapshot (and every estimate derived from it) is
*byte-identical* to a run that never crashed.  Three attack layers:

* A hypothesis property drives randomly drawn absorbable fault schedules
  (errors, crashes, torn writes, corrupted frames at every
  ``service.*`` fault point) through a client-plus-supervisor harness
  that retries unacknowledged batches and restarts the engine after each
  injected death, then compares the published digest and a join estimate
  against the fault-free baseline.
* A deterministic sweep tears the WAL write at each individual sequence
  number, covering the exact mid-``write`` crash window.
* A real ``kill -9`` round-trip: a server subprocess is SIGKILLed midway
  through the report stream, restarted on the same data directory, and
  must republish the acknowledged prefix and finish to the same bytes a
  never-killed server produces.

``FaultPlan.load``'s typed rejection of malformed plan files lives here
too — hand-edited ``--fault-plan`` JSON is the chaos suite's operator
interface, so its failure modes are part of the contract.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import tempfile
from http.client import HTTPConnection
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    InjectedCrashError,
    InjectedFaultError,
    ParameterError,
    RetryExhaustedError,
)
from repro.reliability import FaultPlan, FaultSpec
from repro.reliability.faults import injected
from repro.service import AggregationService, ServiceConfig

TENANT = "acme"
SEED = 17
RETRIES = 3
#: Below the retry budget, so every error/crash schedule is absorbable.
MAX_TIMES = RETRIES - 1

#: Every fault point the service threads (wal.append is the un-retried
#: durability boundary; the rest sit behind the retry policy).
SERVICE_POINTS = (
    "service.ingest",
    "service.wal.append",
    "service.merge",
    "service.snapshot",
    "service.query",
)

#: Restart budget of the supervisor loop.  Hit-counter specs fire at
#: most ``times <= MAX_TIMES`` each, so a handful of restarts always
#: exhausts a schedule; hitting this bound means recovery regressed.
MAX_RESTARTS = 40


def make_config(data_dir) -> ServiceConfig:
    return ServiceConfig(
        data_dir=data_dir,
        k=3,
        m=32,
        epsilon=2.0,
        seed=SEED,
        checkpoint_interval=4,
        retries=RETRIES,
    )


def make_batches(num_batches: int = 12, reports: int = 30, seed: int = 5):
    rng = np.random.default_rng(seed)
    return [
        (TENANT, "A" if i % 2 == 0 else "B", rng.integers(0, 48, size=reports))
        for i in range(num_batches)
    ]


BATCHES = make_batches()

#: ``(digest, estimate)`` of the fault-free run, computed once.
_BASELINE: dict = {}


def baseline():
    if "outcome" not in _BASELINE:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-ref-") as tmp:
            service = AggregationService(make_config(Path(tmp)))
            service.start()
            for tenant, stream, values in BATCHES:
                service.ingest(tenant, stream, values)
            service.publish()
            _BASELINE["outcome"] = (
                service.snapshot.digest,
                service.estimate(TENANT, "A", "B")["estimate"],
            )
            service.close()
    return _BASELINE["outcome"]


def _supervised_start(data_dir) -> AggregationService:
    """Restart until recovery replay survives the armed plan's leftovers.

    ``start()`` replays WAL records outside the retry policy (replay is
    the retry), so unexhausted hit-counter specs at ``service.ingest``
    can kill a restart too.  Production runs under a supervisor that
    just starts the process again; model exactly that.
    """
    for _ in range(MAX_RESTARTS):
        service = AggregationService(make_config(data_dir))
        try:
            service.start()
            return service
        except (InjectedFaultError, InjectedCrashError):
            service.wal.close()
    raise AssertionError("replay faults never exhausted across restarts")


def run_under_faults(data_dir, batches, plan):
    """Client + supervisor harness: every batch acked exactly once.

    The client resends a batch until it is acknowledged; any injected
    death (torn write, corrupted frame, crash before the append) is a
    process loss, so the supervisor restarts the engine from disk and
    the client retries the batch that never acked.  Returns
    ``(digest, estimate)`` of the final published snapshot.
    """
    with injected(plan):
        service = _supervised_start(data_dir)
        for tenant, stream, values in batches:
            for _ in range(MAX_RESTARTS):
                try:
                    service.ingest(tenant, stream, values)
                    break
                except (InjectedFaultError, InjectedCrashError, RetryExhaustedError):
                    # The ack never arrived: treat it as a dead process
                    # (torn/corrupt appends really did damage the file),
                    # restart from disk, resend the batch.
                    service.wal.close()
                    service = _supervised_start(data_dir)
            else:
                raise AssertionError("batch never acknowledged")
        service.publish()
        outcome = (
            service.snapshot.digest,
            service.estimate(TENANT, "A", "B")["estimate"],
        )
        service.close()
    return outcome


class TestServiceChaosProperties:
    """Random absorbable schedules leave the published bytes untouched."""

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_absorbable_schedules_publish_identical_bytes(self, data):
        plan_seed = data.draw(st.integers(0, 2**32 - 1), label="plan_seed")
        num_faults = data.draw(st.integers(1, 3), label="num_faults")
        sequence_match = data.draw(st.booleans(), label="sequence_match")
        plan = FaultPlan.random(
            plan_seed,
            points=SERVICE_POINTS,
            num_faults=num_faults,
            max_times=MAX_TIMES,
            kinds=("error", "crash", "torn-write", "corrupt"),
        )
        if sequence_match:
            # Pin each spec to one WAL record; the points that carry a
            # sequence (ingest, wal.append) fire only on that record.
            plan = FaultPlan(
                [
                    dataclasses.replace(
                        spec,
                        match={
                            "sequence": data.draw(
                                st.integers(0, len(BATCHES) - 1), label="sequence"
                            )
                        },
                    )
                    for spec in plan.specs
                ]
            )
        assert plan.absorbable_by(RETRIES)
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            outcome = run_under_faults(Path(tmp), BATCHES, plan)
        assert outcome == baseline()


class TestTornWriteSweep:
    """A torn or corrupted append at *every* sequence number recovers."""

    @pytest.mark.parametrize("kind", ["torn-write", "corrupt"])
    @pytest.mark.parametrize("sequence", range(0, len(BATCHES), 3))
    def test_damaged_append_at_sequence(self, kind, sequence):
        plan = FaultPlan(
            [
                FaultSpec(
                    point="service.wal.append",
                    kind=kind,
                    times=1,
                    match={"sequence": sequence},
                )
            ]
        )
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            outcome = run_under_faults(Path(tmp), BATCHES, plan)
        assert outcome == baseline()


# ---------------------------------------------------------------------------
# Real kill -9 round-trip through the server subprocess
# ---------------------------------------------------------------------------
_SRC = Path(__file__).resolve().parents[1] / "src"


def _start_server(data_dir) -> tuple:
    """Spawn ``python -m repro.service``; returns ``(proc, port)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--data-dir",
            str(data_dir),
            "--port",
            "0",
            "--k",
            "3",
            "--m",
            "32",
            "--epsilon",
            "2.0",
            "--seed",
            str(SEED),
            "--checkpoint-interval",
            "4",
            # Keep the watchdog publisher quiet; publishes are explicit.
            "--publish-threshold",
            "100000",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("LISTENING "):
        proc.kill()
        rest = proc.stdout.read()
        raise AssertionError(f"server failed to bind: {line!r}\n{rest}")
    return proc, int(line.split()[2])


def _request(port: int, method: str, target: str, body=None) -> dict:
    conn = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, target, body=payload)
        response = conn.getresponse()
        raw = response.read()
        assert response.status == 200, f"{method} {target} -> {response.status}: {raw}"
        return json.loads(raw)
    finally:
        conn.close()


class TestKillNineRoundTrip:
    """The acceptance scenario, with a genuine SIGKILL in the middle."""

    def test_sigkill_mid_stream_restart_is_byte_identical(self, tmp_path):
        reference_digest, reference_estimate = baseline()
        data_dir = tmp_path / "victim"

        proc, port = _start_server(data_dir)
        try:
            for index, (tenant, stream, values) in enumerate(BATCHES[:7]):
                ack = _request(
                    port,
                    "POST",
                    "/v1/report",
                    {"tenant": tenant, "stream": stream, "values": values.tolist()},
                )
                assert ack["sequence"] == index
        finally:
            # No drain, no flush, no goodbye: the WAL is the only truth.
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        proc, port = _start_server(data_dir)
        try:
            # The boot snapshot must already cover every acked batch.
            snapshot = _request(port, "GET", "/v1/snapshot")
            assert snapshot["wal_records"] == 7
            status = _request(port, "GET", "/v1/status")
            assert status["recovery"]["wal_records"] == 7
            for tenant, stream, values in BATCHES[7:]:
                _request(
                    port,
                    "POST",
                    "/v1/report",
                    {"tenant": tenant, "stream": stream, "values": values.tolist()},
                )
            published = _request(port, "POST", "/v1/publish")
            answer = _request(
                port,
                "GET",
                f"/v1/estimate?tenant={TENANT}&kind=join&streams=A,B",
            )
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert published["digest"] == reference_digest
        assert answer["estimate"] == reference_estimate
        assert answer["snapshot_digest"] == reference_digest
        assert proc.returncode == 0  # SIGTERM exits the graceful path


# ---------------------------------------------------------------------------
# FaultPlan.load: malformed plan files fail with typed diagnoses
# ---------------------------------------------------------------------------
class TestFaultPlanLoadValidation:
    def _write(self, tmp_path, payload) -> Path:
        path = tmp_path / "plan.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return path

    def _valid(self, **spec_overrides) -> dict:
        spec = {"point": "service.ingest", "kind": "error", "times": 1}
        spec.update(spec_overrides)
        return {
            "format": "repro/fault-plan",
            "version": 1,
            "name": "edited-by-hand",
            "seed": None,
            "hard_crashes": False,
            "specs": [spec],
        }

    def test_round_trip(self, tmp_path):
        plan = FaultPlan.random(9, points=SERVICE_POINTS, num_faults=3, num_shards=3)
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path).to_dict() == plan.to_dict()

    def test_invalid_json_names_the_file(self, tmp_path):
        path = self._write(tmp_path, "{ not json at all")
        with pytest.raises(ParameterError, match="not valid JSON") as excinfo:
            FaultPlan.load(path)
        assert str(path) in str(excinfo.value)

    def test_unknown_kind_rejected(self, tmp_path):
        path = self._write(tmp_path, self._valid(kind="flood"))
        with pytest.raises(ParameterError, match="kind must be one of") as excinfo:
            FaultPlan.load(path)
        assert str(path) in str(excinfo.value)

    def test_unknown_spec_field_rejected(self, tmp_path):
        path = self._write(tmp_path, self._valid(surprise=1))
        with pytest.raises(ParameterError, match=r"unknown field\(s\) \['surprise'\]"):
            FaultPlan.load(path)

    def test_non_mapping_match_rejected(self, tmp_path):
        path = self._write(tmp_path, self._valid(match=["shard", 1]))
        with pytest.raises(ParameterError, match="'match' must be a mapping"):
            FaultPlan.load(path)

    def test_non_string_match_keys_rejected(self):
        # Unreachable through JSON (keys are always strings there) but
        # reachable through the Python API, so validated all the same.
        with pytest.raises(ParameterError, match="'match' keys must be strings"):
            FaultSpec.from_dict(
                {"point": "service.ingest", "match": {1: "shard"}}
            )

    def test_boolean_times_rejected(self, tmp_path):
        path = self._write(tmp_path, self._valid(times=True))
        with pytest.raises(ParameterError, match="'times' must be a positive int"):
            FaultPlan.load(path)

    def test_non_numeric_delay_rejected(self, tmp_path):
        path = self._write(tmp_path, self._valid(kind="latency", delay="soon"))
        with pytest.raises(ParameterError, match="'delay' must be a number"):
            FaultPlan.load(path)

    def test_specs_must_be_a_list(self, tmp_path):
        payload = self._valid()
        payload["specs"] = "service.ingest"
        path = self._write(tmp_path, payload)
        with pytest.raises(ParameterError, match="'specs' must be a list"):
            FaultPlan.load(path)

    def test_bad_seed_rejected(self, tmp_path):
        payload = self._valid()
        payload["seed"] = "abc"
        path = self._write(tmp_path, payload)
        with pytest.raises(ParameterError, match="'seed' must be an int or null"):
            FaultPlan.load(path)

    def test_wrong_format_rejected(self, tmp_path):
        payload = self._valid()
        payload["format"] = "repro/other"
        path = self._write(tmp_path, payload)
        with pytest.raises(ParameterError, match="not a fault-plan payload"):
            FaultPlan.load(path)

    def test_unsupported_version_rejected(self, tmp_path):
        payload = self._valid()
        payload["version"] = 2
        path = self._write(tmp_path, payload)
        with pytest.raises(ParameterError, match="unsupported fault-plan version"):
            FaultPlan.load(path)
