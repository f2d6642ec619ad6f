"""``setup.py`` ships every subpackage under ``src/repro``."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_setup_lists_every_package():
    tree = ast.parse((ROOT / "setup.py").read_text())
    listed = next(
        ast.literal_eval(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "PACKAGES" for t in node.targets)
    )
    found = [
        ".".join(init.parent.relative_to(ROOT / "src").parts)
        for init in (ROOT / "src" / "repro").rglob("__init__.py")
    ]
    assert sorted(listed) == sorted(found)
