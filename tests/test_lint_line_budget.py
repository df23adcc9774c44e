"""``tools/lint_generic_ops.py`` fails when ``src/repro`` grows past its
line budget, and the tree is within it."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "lint_generic_ops.py"
_spec = importlib.util.spec_from_file_location("lint_generic_ops", _TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def test_a_count_over_the_budget_fails():
    assert lint.lint_line_budget(lint.SRC_LINE_BUDGET) == []
    [problem] = lint.lint_line_budget(lint.SRC_LINE_BUDGET + 1)
    assert "over the" in problem and str(lint.SRC_LINE_BUDGET) in problem


def test_main_exits_1_over_the_budget(monkeypatch, capsys):
    total = sum(lint.loc_counts().values())
    monkeypatch.setattr(lint, "SRC_LINE_BUDGET", total - 1)
    assert lint.main([]) == 1
    assert "line budget" in capsys.readouterr().err


def test_the_tree_is_within_the_budget():
    assert lint.lint_line_budget(sum(lint.loc_counts().values())) == []
