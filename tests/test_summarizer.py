"""Smoke tests for the paper-bench results summariser."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "summarize_results.py"


@pytest.fixture(scope="module")
def summarizer():
    spec = importlib.util.spec_from_file_location("summarize_results", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSummarizer:
    def test_fmt(self, summarizer):
        assert summarizer.fmt(0) == "0"
        assert summarizer.fmt(1234) == "1234"
        assert "e" in summarizer.fmt(1.5e9)

    def test_num_detection(self, summarizer):
        assert summarizer._num("1.5")
        assert not summarizer._num("LDPJoinSketch")

    def test_build_includes_available_sections(self, summarizer):
        body = summarizer.build()
        # At minimum the sections whose CSVs the benchmark suite has
        # produced must render; fig5 runs first, so it is always present
        # once any benchmark ran.
        if (SCRIPT.parent / "results" / "fig5.csv").exists():
            assert "Fig. 5" in body
            assert "LDPJoinSketch" in body

    def test_series_table_shape(self, summarizer):
        rows = [
            {"epsilon": "1.0", "ae": "10", "method": "A"},
            {"epsilon": "1.0", "ae": "20", "method": "B"},
            {"epsilon": "2.0", "ae": "5", "method": "A"},
        ]
        table = summarizer.series_table(rows, "epsilon", "ae", ["A", "B"])
        lines = table.splitlines()
        assert lines[0].startswith("| epsilon | A | B |")
        assert "| 1 | 10 | 20 |" in table
        assert "| 2 | 5 | - |" in table

    def test_main_prints_the_body_and_writes_no_file(self, summarizer, tmp_path,
                                                     monkeypatch, capsys):
        (tmp_path / "fig7.csv").write_text(
            "dataset,method,bits_per_report,total_bits\nzipf,LDPJoinSketch,1,2000\n"
        )
        monkeypatch.setattr(summarizer, "RESULTS", tmp_path)
        monkeypatch.chdir(tmp_path)
        assert summarizer.main([]) == 0
        out = capsys.readouterr().out
        assert out == summarizer.build() + "\n"
        assert "Fig. 7" in out and "| zipf | LDPJoinSketch | 1 | 2,000 |" in out
        assert sorted(tmp_path.iterdir()) == [tmp_path / "fig7.csv"]
        assert not (SCRIPT.parent.parent / "EXPERIMENTS.md").exists()
        with pytest.raises(SystemExit):
            summarizer.main(["--apply"])
