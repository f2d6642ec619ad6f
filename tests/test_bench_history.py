"""Tests of ``tools/bench_history.py``, fed captured perfbench lines.

No benchmark runs here: ``run`` is pointed at a stand-in script that
prints lines captured from ``perfbench/run.py --seed 1 --seconds 2`` (the
per-block figures cut to two) and exits with a chosen code.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_history.py"

QUORUM_LINES = (
    '# meta {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "backend": "numpy", '
    '"data_dir_fs": "ext4", "cpu_calibration_s": 0.2723944300000767, "workload": '
    '"ingest-quorum", "seed": 1, "seconds": 2.0, "trace": 0, "wall": {"ingest_reports_per_s": '
    '539757.7187577515, "ingest_ack_p50_ms": 6.110889, "query_p50_ms": 0.3651405, '
    '"recovery_s": 0.234496319}, "blocks": {"ingest_reports_per_cpu_s": [238920.0, 625840.0], '
    '"estimate_cpu_ms": [1.1666, 0.42505], "recovery_cpu_s": [0.35855, 0.35501]}, '
    '"cpu_steal_share": 0.0013708019191226869, "failures": []}\n'
    '{"correct": true, "attempted": 314, "failed": 0, "metrics": {"estimate_cpu_ms": '
    '{"value": 0.4178668999999996, "unit": "ms"}, "ingest_reports_per_cpu_s": {"value": '
    '656320.5908167218, "unit": "reports/cpu-s"}, "peak_rss_mb": {"value": 46.2265625, '
    '"unit": "MB"}, "recovery_cpu_s": {"value": 0.358547853, "unit": "s"}, "setup_s": '
    '{"value": 0.44524264, "unit": "s"}}}\n'
)

WINDOW_LINES = (
    '# meta {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "backend": "numpy", '
    '"data_dir_fs": "ext4", "cpu_calibration_s": 0.27117793000002166, "workload": '
    '"window-mixed", "seed": 1, "seconds": 2.0, "trace": 0, "wall": {"ingest_reports_per_s": '
    '201807.11472066873, "ingest_ack_p50_ms": 1.1058240000000001, "window_query_p50_ms": '
    '2.7822365, "recovery_s": 0.263427757}, "blocks": {"ingest_reports_per_cpu_s": '
    '[136360.0, 272610.0], "estimate_cpu_ms": [5.739, 2.6514], "recovery_cpu_s": '
    '[0.39442, 0.37088]}, "cpu_steal_share": 0.003389830508474576, "failures": []}\n'
    '{"correct": true, "attempted": 299, "failed": 0, "metrics": {"estimate_cpu_ms": '
    '{"value": 2.6172855000000106, "unit": "ms"}, "ingest_reports_per_cpu_s": {"value": '
    '306407.66043089225, "unit": "reports/cpu-s"}, "peak_rss_mb": {"value": 47.11328125, '
    '"unit": "MB"}, "recovery_cpu_s": {"value": 0.387695251, "unit": "s"}, "setup_s": '
    '{"value": 0.226056319, "unit": "s"}}}\n'
)


@pytest.fixture()
def tool():
    spec = importlib.util.spec_from_file_location("bench_history", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entry(lines=QUORUM_LINES, commit="base-commit", dirty=False):
    """One history line built from captured perfbench output."""
    meta, result = lines.splitlines()
    return {"commit": commit, "dirty": dirty, "meta": json.loads(meta[len("# meta "):]),
            "result": json.loads(result)}


def write_history(path: Path, entries) -> Path:
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    return path


def stand_in(tmp_path: Path, stdout: str, code: int = 0) -> Path:
    """A script that prints ``stdout`` and exits with ``code``, as perfbench would."""
    script = tmp_path / "perfbench_stand_in.py"
    script.write_text(f"import sys\nsys.stdout.write({stdout!r})\nsys.exit({code})\n")
    return script


class TestRun:
    def test_appends_one_line_keyed_by_commit_with_dirty_flag(self, tool, tmp_path,
                                                              monkeypatch):
        monkeypatch.setattr(tool, "PERFBENCH", stand_in(tmp_path, QUORUM_LINES))
        monkeypatch.setattr(tool, "git_state", lambda: ("0123abcd" * 5, True))
        history = tmp_path / "history.jsonl"
        argv = ["--history", str(history), "run", "--workload", "ingest-quorum", "--seed", "1"]
        assert tool.main(argv) == 0
        assert tool.main(argv) == 0
        lines = [json.loads(line) for line in history.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0] == entry(commit="0123abcd" * 5, dirty=True)

    def test_git_state_reads_commit_and_dirty_flag(self, tool, tmp_path):
        if shutil.which("git") is None:
            pytest.skip("git is not installed")

        def git(*args):
            return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                                  cwd=tmp_path, check=True, capture_output=True,
                                  text=True).stdout.strip()

        git("init", "-q")
        (tmp_path / "code.py").write_text("x = 1\n")
        (tmp_path / "BENCH_history.jsonl").write_text("")
        git("add", "-A")
        git("commit", "-q", "-m", "seed")
        head = git("rev-parse", "HEAD")
        assert tool.git_state(tmp_path) == (head, False)
        (tmp_path / "BENCH_history.jsonl").write_text("{}\n")  # appending is not a change
        (tmp_path / "untracked.txt").write_text("notes\n")
        assert tool.git_state(tmp_path) == (head, False)
        (tmp_path / "code.py").write_text("x = 2\n")
        assert tool.git_state(tmp_path) == (head, True)

    @pytest.mark.parametrize("code", [1, 2])
    def test_nonzero_perfbench_exit_is_a_nonzero_exit(self, tool, tmp_path, monkeypatch, code):
        monkeypatch.setattr(tool, "PERFBENCH", stand_in(tmp_path, "error: no source\n", code))
        monkeypatch.setattr(tool, "git_state", lambda: ("0" * 40, False))
        history = tmp_path / "history.jsonl"
        assert tool.main(["--history", str(history), "run", "--workload", "window-mixed"]) == code
        assert not history.exists()

    def test_missing_result_line_is_a_nonzero_exit(self, tool, tmp_path, monkeypatch):
        monkeypatch.setattr(tool, "PERFBENCH", stand_in(tmp_path, QUORUM_LINES.splitlines()[1]))
        history = tmp_path / "history.jsonl"
        assert tool.main(["--history", str(history), "run"]) == 1
        assert not history.exists()


class TestFloors:
    @pytest.mark.parametrize(
        "lines, figure, failing, passing, floor",
        [
            (QUORUM_LINES, "ingest_reports_per_s", 49_999.0, 50_001.0, ">= 50,000.00"),
            (WINDOW_LINES, "window_query_p50_ms", 5.01, 4.99, "<= 5.00"),
        ],
    )
    def test_floor_fails_just_past_its_threshold(self, tool, lines, figure, failing, passing,
                                                 floor):
        line = entry(lines)
        line["meta"]["wall"][figure] = failing
        assert tool.problems(line) == [f"wall.{figure} = {failing:,.2f}, floor {floor}"]
        line["meta"]["wall"][figure] = passing
        assert tool.problems(line) == []

    def test_failing_run_exits_nonzero_but_is_kept(self, tool, tmp_path, monkeypatch):
        slow = QUORUM_LINES.replace('"ingest_reports_per_s": 539757.7187577515',
                                    '"ingest_reports_per_s": 49999.0')
        monkeypatch.setattr(tool, "PERFBENCH", stand_in(tmp_path, slow))
        monkeypatch.setattr(tool, "git_state", lambda: ("0" * 40, False))
        history = tmp_path / "history.jsonl"
        assert tool.main(["--history", str(history), "run"]) == 1
        assert len(history.read_text().splitlines()) == 1
        assert tool.main(["--history", str(history), "check"]) == 1


class TestCheck:
    def test_accepts_captured_lines(self, tool, tmp_path):
        history = write_history(tmp_path / "h.jsonl", [entry(), entry(WINDOW_LINES)])
        assert tool.main(["--history", str(history), "check"]) == 0

    def test_rejects_correct_false(self, tool, tmp_path, capsys):
        bad = entry(WINDOW_LINES)
        bad["result"]["correct"] = False
        history = write_history(tmp_path / "h.jsonl", [entry(), bad])
        assert tool.main(["--history", str(history), "check"]) == 1
        assert "h.jsonl:2: perfbench reported correct: false" in capsys.readouterr().out

    def test_rejects_a_missing_metric(self, tool, tmp_path, capsys):
        bad = entry()
        del bad["result"]["metrics"]["recovery_cpu_s"]
        history = write_history(tmp_path / "h.jsonl", [bad])
        assert tool.main(["--history", str(history), "check"]) == 1
        assert "metric recovery_cpu_s is missing" in capsys.readouterr().out

    def test_rejects_a_malformed_last_line(self, tool, tmp_path, capsys):
        history = write_history(tmp_path / "h.jsonl", [entry(), entry(WINDOW_LINES)])
        history.write_text(history.read_text()[:-40])  # a torn final append
        assert tool.main(["--history", str(history), "check"]) == 1
        assert "h.jsonl:2: not a JSON line" in capsys.readouterr().out

    def test_rejects_an_empty_history(self, tool, tmp_path):
        assert tool.main(["--history", str(tmp_path / "absent.jsonl"), "check"]) == 1

    def test_checked_in_history_passes(self, tool):
        assert tool.main(["check"]) == 0


class TestDiff:
    @staticmethod
    def history(tmp_path: Path, metric: str, factor: float, dirty: bool = False) -> Path:
        """Three base runs, and three head runs with ``metric`` scaled by ``factor``."""
        head = entry(commit="head-commit", dirty=dirty)
        head["result"]["metrics"][metric]["value"] *= factor
        return write_history(tmp_path / "h.jsonl", [entry()] * 3 + [head] * 3)

    @pytest.mark.parametrize(
        "metric, factor, flagged",
        [
            ("ingest_reports_per_cpu_s", 0.76, False),  # higher is better, bound 0.25
            ("ingest_reports_per_cpu_s", 0.74, True),
            ("ingest_reports_per_cpu_s", 2.0, False),
            ("estimate_cpu_ms", 1.24, False),  # lower is better, bound 0.25
            ("estimate_cpu_ms", 1.26, True),
            ("estimate_cpu_ms", 0.5, False),
            ("peak_rss_mb", 1.09, False),  # bound 0.1
            ("peak_rss_mb", 1.11, True),
        ],
    )
    def test_flags_only_a_move_worse_than_its_bound(self, tool, tmp_path, metric, factor,
                                                    flagged):
        history = self.history(tmp_path, metric, factor)
        code = tool.main(["--history", str(history), "diff", "base-commit", "head-commit"])
        assert code == (1 if flagged else 0)

    def test_reads_bound_and_direction_from_benchmark_json(self, tool, tmp_path, monkeypatch):
        history = self.history(tmp_path, "estimate_cpu_ms", 1.4)
        argv = ["--history", str(history), "diff", "base-commit", "head-commit"]
        assert tool.main(argv) == 1
        declared = json.loads(tool.BENCHMARK.read_text())
        looser = copy.deepcopy(declared)
        for spec in looser["end_to_end"]:
            if spec["name"] == "estimate_cpu_ms":
                spec["bound"] = 0.5
        monkeypatch.setattr(tool, "BENCHMARK", tmp_path / "looser.json")
        tool.BENCHMARK.write_text(json.dumps(looser))
        assert tool.main(argv) == 0
        for spec in looser["end_to_end"]:
            if spec["name"] == "estimate_cpu_ms":
                spec["better"], spec["bound"] = "higher", 0.25
        tool.BENCHMARK.write_text(json.dumps(looser))
        history = self.history(tmp_path, "estimate_cpu_ms", 0.7)
        assert tool.main(argv) == 1

    def test_dirty_lines_and_unknown_commits_are_not_compared(self, tool, tmp_path):
        history = self.history(tmp_path, "estimate_cpu_ms", 1.0, dirty=True)
        assert tool.main(["--history", str(history), "diff", "base-commit", "head-commit"]) == 1
        assert tool.main(["--history", str(history), "diff", "base-commit", "nowhere"]) == 1
