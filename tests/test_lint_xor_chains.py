"""``tools/lint_generic_ops.py`` rejects XOR chains that convert a block
once per link, and the tree has none."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "lint_generic_ops.py"
_spec = importlib.util.spec_from_file_location("lint_generic_ops", _TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def _flagged(source: str):
    return [line for line, _ in lint._xor_chains(ast.parse(source))]


def test_flags_nested_calls_and_loop_accumulators():
    assert _flagged(
        "p = xor(xor(a, b), c)\n"                 # 1: nested
        "for x in xs:\n"
        "    acc = xor(acc, x)\n"                 # 3: accumulator in a loop
        "while more():\n"
        "    if ok:\n"
        "        acc = common.xor(x, acc)\n"      # 6: either operand, attribute call
    ) == [1, 3, 6]


def test_passes_one_pass_forms():
    assert _flagged(
        "acc = xor(a, b)\n"                       # not in a loop
        "for x in xs:\n"
        "    out.append(xor(x, delta))\n"         # no accumulator
        "    y = xor(a, b)\n"                     # a fresh name
        "    def f(acc):\n"
        "        acc = xor(acc, 1)\n"             # a function body starts over
        "        return acc\n"
        "acc = xor_all([a, b, c])\n"
    ) == []


def test_the_tree_has_no_chains():
    assert lint.lint_xor_chains() == []
