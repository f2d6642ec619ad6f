"""Tests for the ``repro-experiments`` command line."""

from __future__ import annotations

import csv
import json
import subprocess
import sys

import pytest

from repro.distributed import PartialAggregate, merge_tree
from repro.experiments.cli import build_parser, main
from repro.experiments.figures import ALL_EXPERIMENTS


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig5"])
        assert args.experiment == "fig5"
        assert args.scale == 0.002
        assert args.trials is None
        assert args.out is None

    def test_run_options(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "fig8", "--scale", "0.01", "--trials", "5", "--seed", "9", "--out", str(tmp_path)]
        )
        assert args.scale == 0.01
        assert args.trials == 5
        assert args.seed == 9

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_all_is_accepted(self):
        args = build_parser().parse_args(["run", "all"])
        assert args.experiment == "all"

    def test_run_workers_flag(self):
        args = build_parser().parse_args(["run", "fig5", "--workers", "4"])
        assert args.workers == 4

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.command == "sweep"
        assert args.datasets == ["zipf-1.1"]
        assert args.trial_axis == "exact"
        assert args.workers == 1

    def test_sweep_options(self):
        args = build_parser().parse_args(
            [
                "sweep", "--datasets", "facebook", "movielens",
                "--methods", "ldp-join-sketch", "hcms",
                "--epsilons", "1", "4", "--trials", "3",
                "--workers", "2", "--trial-axis", "grouped",
            ]
        )
        assert args.datasets == ["facebook", "movielens"]
        assert args.methods == ["ldp-join-sketch", "hcms"]
        assert args.epsilons == [1.0, 4.0]
        assert args.trial_axis == "grouped"


class TestMain:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_EXPERIMENTS:
            assert name in out

    def test_run_table2_writes_csv(self, tmp_path, capsys):
        code = main(["run", "table2", "--scale", "0.0003", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        with (tmp_path / "table2.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "dataset"
        assert len(rows) == 7  # header + six datasets

    def test_run_fig7_without_out(self, capsys):
        assert main(["run", "fig7", "--scale", "0.0003"]) == 0
        assert "communication" in capsys.readouterr().out

    def test_sweep_command_runs(self, tmp_path, capsys):
        code = main(
            [
                "sweep", "--datasets", "facebook", "--methods", "ldp-join-sketch",
                "--epsilons", "4", "--trials", "2", "--scale", "0.0005",
                "--k", "4", "--m", "64", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "LDPJoinSketch" in out
        with (tmp_path / "sweep.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "dataset"
        assert len(rows) == 2

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "fig15" in result.stdout


def flip_checksum(text):
    """A partial's JSON text with one bit of its crc flipped."""
    payload = json.loads(text)
    payload["checksum"] ^= 1
    return json.dumps(payload)


class TestShardSubcommand:
    @staticmethod
    def _write_partials(tmp_path, capsys, method="ldp-join-sketch", shards=3, seed=2024):
        directory = tmp_path / f"{method}-{seed}"
        code = main(
            [
                "shard", "run", "--method", method, "--shards", str(shards),
                "--seed", str(seed), "--scale", "0.0005", "--k", "3", "--m", "32",
                "--partials-dir", str(directory),
            ]
        )
        assert code == 0
        capsys.readouterr()
        return sorted(directory.glob("*.json"))

    @pytest.mark.parametrize("method", ["ldp-join-sketch", "krr", "fagms"])
    def test_merge_writes_the_tree_merge_of_the_run_partials(self, tmp_path, capsys, method):
        paths = self._write_partials(tmp_path, capsys, method=method)
        assert len(paths) == 3
        out = tmp_path / "merged.json"
        assert main(["shard", "merge", *map(str, paths), "--out", str(out)]) == 0
        assert "merged 3 partial(s)" in capsys.readouterr().out
        expected = merge_tree(
            [PartialAggregate.from_dict(json.loads(path.read_text())) for path in paths]
        )
        assert json.loads(out.read_text()) == json.loads(json.dumps(expected.to_dict()))

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda text: "not json", "Expecting value"),
            (lambda text: '{"format": "x"}', "format='x'"),
            (None, "No such file"),
            (flip_checksum, "content checksum"),
        ],
        ids=["not-json", "wrong-format", "missing", "corrupt"],
    )
    def test_a_bad_file_exits_2_naming_it(self, tmp_path, capsys, damage, message):
        (good,) = self._write_partials(tmp_path, capsys, shards=1)
        bad = tmp_path / "bad.json"
        if damage is not None:
            bad.write_text(damage(good.read_text()))
        assert main(["shard", "merge", str(good), str(bad)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert str(bad) in err and message in err

    def test_partials_of_two_methods_exit_2(self, tmp_path, capsys):
        paths = self._write_partials(tmp_path, capsys, shards=1)
        paths += self._write_partials(tmp_path, capsys, method="krr", shards=1)
        assert main(["shard", "merge", *map(str, paths)]) == 2
        assert "method mismatch" in capsys.readouterr().err

    def test_partials_of_two_seeds_exit_2(self, tmp_path, capsys):
        paths = self._write_partials(tmp_path, capsys, shards=1)
        paths += self._write_partials(tmp_path, capsys, shards=1, seed=5)
        assert main(["shard", "merge", *map(str, paths)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "mismatch" in err


def _with_pair(tmp_path, steps):
    """Run ``steps(primary, standby)`` on a thread beside a live pair.

    The standby and the primary that replicates to it are in-process
    servers; ``steps`` gets their ``HOST:PORT`` addresses.
    """
    import asyncio

    from repro.service import (
        HttpReplica,
        ReplicatedService,
        ServerConfig,
        ServiceConfig,
        ServiceServer,
    )

    def node(name, **options):
        config = ServiceConfig(data_dir=tmp_path / name, k=3, m=32, epsilon=2.0, seed=5)
        service = ReplicatedService(config, **options)
        return ServiceServer(service, ServerConfig(port=0, watchdog_interval=0.05))

    async def scenario():
        standby = node("standby", role="standby")
        host, standby_port = await standby.start()
        primary = node("primary", replicas=[HttpReplica(host, standby_port)])
        try:
            _, primary_port = await primary.start()
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                None, steps, f"{host}:{primary_port}", f"{host}:{standby_port}"
            )
        finally:
            await primary.shutdown()
            await standby.shutdown()

    return asyncio.run(scenario())


def _unused_address() -> str:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{sock.getsockname()[1]}"


class TestFailoverSubcommand:
    """``repro-experiments failover status|promote`` against a live pair."""

    @staticmethod
    def _ingest(primary, standby):
        from repro.service import ResilientClient

        client = ResilientClient([primary, standby])
        for values in ([1, 2, 3], [4, 5]):
            client.ingest("acme", "A", values)

    def test_status_prints_one_line_per_endpoint(self, tmp_path, capsys):
        def steps(primary, standby):
            self._ingest(primary, standby)
            return main(["failover", "status", "--endpoint", primary, "--endpoint", standby])

        assert _with_pair(tmp_path, steps) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[0] 127.0.0.1:") and "role=primary epoch=0" in lines[0]
        assert lines[1].startswith("[1] 127.0.0.1:") and "role=standby epoch=0" in lines[1]
        assert all("wal_sequence=2" in line for line in lines)

    def test_unreachable_endpoint_exits_1(self, tmp_path, capsys):
        dead = _unused_address()

        def steps(primary, standby):
            return main(["failover", "status", "--endpoint", primary, "--endpoint", dead])

        assert _with_pair(tmp_path, steps) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "role=primary" in lines[0]
        assert lines[1].startswith(f"[1] {dead}: unreachable")

    def test_promote_then_status_shows_epoch_1(self, tmp_path, capsys):
        def steps(primary, standby):
            self._ingest(primary, standby)
            endpoints = ["--endpoint", primary, "--endpoint", standby]
            promoted = main(["failover", "promote", *endpoints, "--target", "1"])
            promote_out = capsys.readouterr().out
            return promoted, promote_out, main(["failover", "status", *endpoints])

        promoted, promote_out, status = _with_pair(tmp_path, steps)
        assert promoted == 0 and status == 0
        assert json.loads(promote_out) == {
            "fencing_epoch": 1,
            "promoted": True,
            "role": "primary",
        }
        lines = capsys.readouterr().out.splitlines()
        assert "role=primary epoch=1 wal_sequence=2" in lines[1]

    def test_bad_endpoint_exits_2(self, capsys):
        assert main(["failover", "status", "--endpoint", "nohost"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err


class TestLintSubcommand:
    """``repro-experiments lint`` forwards to :mod:`repro.analysis`."""

    def test_lint_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 diagnostic(s)" in capsys.readouterr().out

    def test_lint_flags_violation(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert "RPR101" in capsys.readouterr().out

    def test_lint_forwards_leading_options(self, capsys):
        # argparse REMAINDER cannot capture a leading --flag; the lint
        # subcommand is intercepted before parsing so this must work.
        assert main(["lint", "--list-rules"]) == 0
        assert "RPR103" in capsys.readouterr().out

    def test_lint_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        assert main(["lint", str(tmp_path), "--format=json"]) == 1
        assert '"code": "RPR101"' in capsys.readouterr().out

    def test_lint_appears_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "lint" in capsys.readouterr().out

    def test_lint_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "lint", "--list-rules"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "RPR101" in result.stdout
