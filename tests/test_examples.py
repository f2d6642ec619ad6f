"""Integration tests: every example script runs and prints sane output."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path


EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_examples_directory_complete(self):
        scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert "quickstart.py" in scripts
        assert len(scripts) >= 3

    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "exact join size" in out
        assert "LDPJoinSketch+" in out
        assert "eps = 4.0" in out

    def test_private_similarity(self):
        out = run_example("private_similarity.py")
        assert "private cos" in out
        # The similar seller must rank above the unrelated one.
        lines = [l for l in out.splitlines() if l.startswith("seller")]
        similar = float(lines[0].split()[-1])
        unrelated = float(lines[2].split()[-1])
        assert similar > unrelated
        # The closing sentence follows the printed columns.
        exact, private = ([float(l.split()[i]) for l in lines] for i in (-2, -1))
        matches = sorted(range(3), key=exact.__getitem__) == sorted(
            range(3), key=private.__getitem__
        )
        assert ("ranking matches" in out) == matches
        # Seeded by position, not by salted string hashes.
        assert run_example("private_similarity.py") == out

    def test_dataset_discovery(self):
        out = run_example("dataset_discovery.py")
        assert "Privately ranked join candidates" in out
        # The genuinely joinable columns outrank the unrelated ones.
        ranked = [l.strip() for l in out.splitlines() if l.strip().startswith(("1.", "2."))]
        assert any("panel_results" in line for line in ranked)

    def test_multiway_join(self):
        out = run_example("multiway_join.py")
        assert "COMPASS" in out
        assert "eps=10.0" in out

    def test_frequency_estimation(self):
        out = run_example("frequency_estimation.py")
        assert "MSE over" in out
        assert "LDPJoinSketch" in out

    def test_streaming_collection(self):
        out = run_example("streaming_collection.py")
        assert "lossless" in out
        # Seven daily waves reported.
        assert sum(1 for l in out.splitlines() if l.strip() and l.split()[0].isdigit()) == 7
