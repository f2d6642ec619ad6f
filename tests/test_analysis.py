"""Tests for :mod:`repro.analysis` — the invariant linter.

Every RPR rule is exercised with at least one minimal *bad* fixture
(must flag) and one minimal *good* fixture (must stay silent), plus the
framework semantics: line suppressions, baseline allowances, runner exit
codes and output formats, and the self-check that the shipped source
tree is clean under the shipped (empty) baseline.

Fixture files are written into a miniature package layout
(``<tmp>/repro/<subpackage>/mod.py``) because most rules scope
themselves by location inside the ``repro`` package.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    SYNTAX_ERROR_CODE,
    apply_baseline,
    lint_paths,
    load_baseline,
    save_baseline,
)
from repro.analysis.runner import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_tree(tmp_path, tree):
    """Write ``{relative_path: source}`` under ``tmp_path`` and lint it."""
    for rel, source in tree.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return lint_paths([tmp_path])


def codes_of(result):
    return [d.code for d in result.diagnostics]


# ---------------------------------------------------------------------------
# Rule fixtures: (rule code, relative path, source, expected hit count)
# ---------------------------------------------------------------------------

BAD_FIXTURES = [
    ("RPR101", "repro/core/a.py", "import random\n", 1),
    ("RPR101", "repro/core/b.py", "from random import choice\n", 1),
    ("RPR101", "repro/core/c.py", "import numpy as np\nnp.random.seed(1)\n", 1),
    ("RPR101", "repro/core/d.py", "import numpy as np\nx = np.random.rand(3)\n", 1),
    (
        "RPR101",
        "repro/core/e.py",
        "import numpy as np\nrng = np.random.default_rng()\n",
        1,
    ),
    (
        "RPR101",
        "repro/core/f.py",
        "from numpy.random import default_rng\nrng = default_rng()\n",
        1,
    ),
    ("RPR101", "scripts/tool.py", "import random\n", 1),  # applies outside repro too
    (
        "RPR102",
        "repro/core/g.py",
        "import numpy as np\nnp.add.at(out, (rows, cols), w)\n",
        1,
    ),
    (
        "RPR102",
        "repro/core/h.py",
        "import numpy as np\nacc = acc.astype(np.float64)\n",
        1,
    ),
    (
        "RPR102",
        "repro/distributed/i.py",
        "raw = counts.astype('float32')\n",
        1,
    ),
    ("RPR102", "repro/transform/j.py", "acc /= 3\n", 1),
    ("RPR102", "repro/core/j2.py", "accum = accum / total\n", 1),
    (
        "RPR102",
        "repro/core/k.py",
        "import numpy as np\nout = np.bincount(flat.astype(np.int32), minlength=n)\n",
        1,
    ),
    (
        "RPR102",
        "repro/distributed/k2.py",
        "bincount_accumulate(out, idx.astype('int32'), w)\n",
        1,
    ),
    # accumulate.py is the one home of np.add.at; no package is exempt.
    ("RPR102", "repro/backend/k3.py", "import numpy as np\nnp.add.at(out, idx, 1)\n", 1),
    (
        "RPR102",
        "repro/mechanisms/k4.py",
        "import numpy\nnumpy.add.at(counts, idx, 1)\n",
        1,
    ),
    ("RPR102", "repro/transform/k5.py", "acc *= 0.5\n", 1),
    (
        "RPR102",
        "repro/core/k6.py",
        "bincount_accumulate(out, flat.astype(dtype='uint32'), w)\n",
        1,
    ),
    ("RPR104", "repro/core/q.py", "import math\np = math.exp(epsilon)\n", 1),
    (
        "RPR104",
        "repro/experiments/r.py",
        "import numpy as np\nw = np.exp(self.eps / 2)\n",
        1,
    ),
    (
        "RPR105",
        "repro/experiments/s.py",
        "for item in set(items):\n    work(item)\n",
        1,
    ),
    (
        "RPR105",
        "repro/distributed/t.py",
        "for name in set(a) & set(b):\n    work(name)\n",
        1,
    ),
    ("RPR105", "repro/core/u.py", "key, value = state.popitem()\n", 1),
    (
        "RPR105",
        "repro/experiments/v.py",
        "import time\nseed = int(time.time())\n",
        1,
    ),
    (
        # Flags twice: wall-clock bound to an rng-named target AND fed
        # into ensure_rng.
        "RPR105",
        "repro/core/w.py",
        "import time\nrng = ensure_rng(int(time.time()))\n",
        2,
    ),
    (
        "RPR105",
        "repro/core/w2.py",
        "import time\nrun(seed=time.time_ns())\n",
        1,
    ),
    ("RPR106", "repro/service/x1.py", "import requests\n", 1),
    ("RPR106", "repro/service/x2.py", "from requests import get\n", 1),
    (
        "RPR106",
        "repro/service/x3.py",
        "import time\nasync def handle():\n    time.sleep(1)\n",
        1,
    ),
    (
        "RPR106",
        "repro/service/x4.py",
        "async def handle(path):\n    path.write_text('x')\n",
        1,
    ),
    (
        "RPR106",
        "repro/service/x5.py",
        "async def handle():\n    with open('f') as fh:\n        pass\n",
        1,
    ),
    (
        "RPR106",
        "repro/service/x6.py",
        "import time\nseed = int(time.time())\n",
        1,
    ),
    (
        "RPR107",
        "repro/api/y1.py",
        "self.ledger.charges.append((group, eps, mech))\n",
        1,
    ),
    (
        "RPR107",
        "repro/api/y2.py",
        "session.ledger.charges.extend(other.ledger.charges)\n",
        1,
    ),
    (
        "RPR107",
        "repro/temporal/y3.py",
        "ledger.charges += [(group, eps, mech)]\n",
        1,
    ),
]

GOOD_FIXTURES = [
    # RPR101: seeded construction, the sanctioned module, and ensure_rng.
    ("RPR101", "repro/core/ga.py", "import numpy as np\nrng = np.random.default_rng(7)\n"),
    ("RPR101", "repro/rng.py", "import numpy as np\nrng = np.random.default_rng()\n"),
    ("RPR101", "repro/core/gb.py", "from repro.rng import ensure_rng\nrng = ensure_rng(None)\n"),
    # RPR102: sanctioned np.add.at homes; reads into fresh names; int64 stays.
    ("RPR102", "repro/accumulate.py", "import numpy as np\nnp.add.at(out, idx, 1)\n"),
    ("RPR102", "repro/core/gc.py", "import numpy as np\ncounts = raw.astype(np.float64)\n"),
    ("RPR102", "repro/core/gd.py", "import numpy as np\nacc = acc.astype(np.int64)\n"),
    ("RPR102", "repro/api/ge.py", "import numpy as np\nraw = x.astype(np.float64)\n"),
    (
        "RPR102",
        "repro/core/gf.py",
        "import numpy as np\nout = np.bincount(flat.astype(np.int64), minlength=n)\n",
    ),
    # Outside the repro package, and float casts outside the
    # merge-critical packages, are not RPR102's business.
    ("RPR102", "scripts/gw.py", "import numpy as np\nnp.add.at(out, idx, 1)\n"),
    ("RPR102", "repro/mechanisms/gx.py", "import numpy as np\nacc = acc.astype(np.float64)\n"),
    # RPR104: inside the accounted packages, or no epsilon in sight.
    ("RPR104", "repro/mechanisms/gj.py", "import math\np = math.exp(epsilon)\n"),
    ("RPR104", "repro/privacy/gk.py", "import math\nratio = math.exp(eps)\n"),
    ("RPR104", "repro/data/gl.py", "import numpy as np\nw = np.exp(-0.5 * z * z)\n"),
    ("RPR104", "repro/core/gm.py", "import math\nn_steps = math.exp(steps)\n"),
    # RPR105: sorted iteration, out-of-scope package, explicit seeds.
    ("RPR105", "repro/experiments/gn.py", "for item in sorted(set(items)):\n    work(item)\n"),
    ("RPR105", "repro/api/go.py", "for item in set(items):\n    work(item)\n"),
    ("RPR105", "repro/core/gp.py", "import time\nelapsed = time.time() - start\n"),
    # RPR106: async-safe sleep, sync helpers (the executor runs those),
    # blocking work behind run_in_executor, and non-service packages.
    (
        "RPR106",
        "repro/service/gq.py",
        "import asyncio\nasync def handle():\n    await asyncio.sleep(0)\n",
    ),
    (
        "RPR106",
        "repro/service/gr.py",
        "import os\ndef barrier(fh):\n    os.fsync(fh.fileno())\n",
    ),
    (
        "RPR106",
        "repro/service/gs.py",
        "async def handle(loop, executor):\n"
        "    def work(path):\n"
        "        return path.read_bytes()\n"
        "    await loop.run_in_executor(executor, work, p)\n",
    ),
    ("RPR106", "repro/experiments/gt.py", "import requests\n"),
    # RPR107: the sanctioned module, the ledger API, reads, local lists.
    (
        "RPR107",
        "repro/privacy/budget.py",
        "self.charges.append((group, eps, mech))\n",
    ),
    (
        "RPR107",
        "repro/api/gu.py",
        "self.ledger.absorb(other.ledger.charges, label=label)\n",
    ),
    (
        "RPR107",
        "repro/api/gv.py",
        "charges.append((group, eps, mech))\n",
    ),
]


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "code,rel,source,count", BAD_FIXTURES, ids=[f[1] for f in BAD_FIXTURES]
    )
    def test_bad_fixture_flags(self, tmp_path, code, rel, source, count):
        result = lint_tree(tmp_path, {rel: source})
        assert codes_of(result).count(code) == count, result.diagnostics

    @pytest.mark.parametrize(
        "code,rel,source", GOOD_FIXTURES, ids=[f[1] for f in GOOD_FIXTURES]
    )
    def test_good_fixture_silent(self, tmp_path, code, rel, source):
        result = lint_tree(tmp_path, {rel: source})
        assert codes_of(result).count(code) == 0, result.diagnostics

    def test_every_rule_has_good_and_bad_fixture(self):
        bad = {f[0] for f in BAD_FIXTURES}
        good = {f[0] for f in GOOD_FIXTURES}
        assert bad == set(RULES) == good

    def test_diagnostic_positions(self, tmp_path):
        result = lint_tree(
            tmp_path, {"repro/core/pos.py": "x = 1\nimport random\n"}
        )
        (diag,) = result.diagnostics
        assert diag.line == 2
        assert diag.code == "RPR101"
        assert diag.format_text().endswith(
            f":2:0: RPR101 {diag.message}"
        )

    def test_rule_catalogue_is_documented(self):
        for code, rule in RULES.items():
            assert rule.name and rule.rationale, f"{code} lacks documentation"


class TestSuppressions:
    def test_targeted_suppression(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {"repro/core/sa.py": "import random  # repro: ignore[RPR101]\n"},
        )
        assert codes_of(result) == []
        assert [d.code for d in result.suppressed] == ["RPR101"]

    def test_blanket_suppression(self, tmp_path):
        result = lint_tree(
            tmp_path, {"repro/core/sb.py": "import random  # repro: ignore\n"}
        )
        assert codes_of(result) == []
        assert len(result.suppressed) == 1

    def test_wrong_code_does_not_suppress(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {"repro/core/sc.py": "import random  # repro: ignore[RPR105]\n"},
        )
        assert codes_of(result) == ["RPR101"]

    def test_multiple_codes(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/sd.py": (
                    "import random  # repro: ignore[RPR105, RPR101]\n"
                )
            },
        )
        assert codes_of(result) == []

    def test_suppression_is_line_scoped(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/core/se.py": (
                    "import random  # repro: ignore[RPR101]\n"
                    "from random import choice\n"
                )
            },
        )
        assert codes_of(result) == ["RPR101"]


class TestBaseline:
    def _diags(self, tmp_path):
        return lint_tree(
            tmp_path,
            {
                "repro/core/ba.py": "import random\nfrom random import choice\n",
                "repro/core/bb.py": "import numpy as np\nnp.add.at(out, idx, 1)\n",
            },
        ).diagnostics

    def test_roundtrip_and_allowance(self, tmp_path):
        diags = self._diags(tmp_path)
        assert len(diags) == 3
        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline_path, diags)
        baseline = load_baseline(baseline_path)
        fresh, absorbed = apply_baseline(diags, baseline)
        assert fresh == [] and len(absorbed) == 3

    def test_allowance_is_counted(self, tmp_path):
        diags = self._diags(tmp_path)
        only_one = [d for d in diags if d.code == "RPR101"][:1]
        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline_path, only_one)
        fresh, absorbed = apply_baseline(diags, load_baseline(baseline_path))
        # One RPR101 absorbed, the second RPR101 and the RPR102 stay fresh.
        assert len(absorbed) == 1 and len(fresh) == 2

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ValueError):
            load_baseline(path)

    def test_rejects_bad_allowance(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "entries": {"a.py::RPR101": 0}}))
        with pytest.raises(ValueError):
            load_baseline(path)


class TestRunner:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0
        assert "0 diagnostic(s)" in capsys.readouterr().out

    def test_exit_one_on_violation(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPR101" in out and "bad.py" in out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing")]) == 2

    def test_syntax_error_is_reported(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert main([str(tmp_path)]) == 1
        assert SYNTAX_ERROR_CODE in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        assert main([str(tmp_path), "--format=json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        (diag,) = payload["diagnostics"]
        assert diag["code"] == "RPR101" and diag["line"] == 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_baseline_flow(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        baseline = tmp_path / "baseline.json"
        assert main([str(tmp_path), "--baseline", str(baseline), "--update-baseline"]) == 0
        capsys.readouterr()
        # Baselined violation no longer fails ...
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # ... but a fresh one still does.
        worse = "import numpy as np\nnp.add.at(out, idx, 1)\n"
        (tmp_path / "worse.py").write_text(worse)  # outside repro: fine
        (tmp_path / "repro" / "core").mkdir(parents=True)
        (tmp_path / "repro" / "core" / "worse.py").write_text(worse)
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 1

    def test_update_baseline_requires_baseline(self, tmp_path):
        with pytest.raises(SystemExit):
            main([str(tmp_path), "--update-baseline"])

    def test_skips_cache_directories(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("import random\n")
        (tmp_path / "ok.py").write_text("x = 1\n")
        result = lint_paths([tmp_path])
        assert result.files_checked == 1

    def test_explicit_file_target(self, tmp_path):
        bad = tmp_path / "one.py"
        bad.write_text("import random\n")
        result = lint_paths([bad])
        assert codes_of(result) == ["RPR101"]


class TestRepoIsClean:
    """The shipped tree passes its own linter with the shipped baseline."""

    def test_src_tree_clean(self, capsys):
        assert main([str(REPO_ROOT / "src")]) == 0

    def test_shipped_baseline_is_empty(self):
        baseline = load_baseline(REPO_ROOT / "tools" / "lint_baseline.json")
        assert sum(baseline.values()) == 0


class TestCLIIntegration:
    def test_experiments_cli_forwards_lint(self, tmp_path, capsys):
        from repro.experiments.cli import main as cli_main

        (tmp_path / "bad.py").write_text("import random\n")
        assert cli_main(["lint", str(tmp_path)]) == 1
        assert "RPR101" in capsys.readouterr().out
        assert cli_main(["lint", "--list-rules"]) == 0
