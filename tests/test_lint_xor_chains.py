"""``tools/lint_generic_ops.py`` rejects XOR chains that convert a block
once per link, and block <-> integer conversions in the arrays and ixt3
that bypass ``repro.common.xor``; the tree has neither."""

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


def _conversions(source: str):
    return sorted(line for line, _ in lint._conversions(ast.parse(source)))


def test_flags_block_int_conversions():
    assert _conversions(
        "v = int.from_bytes(block, 'little')\n"          # 1
        "out = v.to_bytes(n, 'little')\n"                # 2
        "f(int.from_bytes(b''.join(cells), 'big'))\n"    # 3: nested in a call
        "w = (a ^ b).to_bytes(4096, 'little')\n"         # 4: any receiver
    ) == [1, 2, 3, 4]


def test_passes_conversions_through_the_table():
    assert _conversions(
        "v = as_int(block)\n"
        "out = as_block(v, n)\n"
        "p = xor_all([a, b])\n"
        "ref = int.from_bytes\n"                          # named, not called
        "s = struct.pack('<I', v)\n"
    ) == []


def test_conversion_rule_covers_arrays_and_ixt3_only(tmp_path, monkeypatch):
    src = tmp_path / "src" / "repro"
    for where in ("redundancy/rdp.py", "fs/ixt3/ixt3.py", "fs/ext3/ext3.py",
                  "common/xor.py"):
        (src / where).parent.mkdir(parents=True, exist_ok=True)
        (src / where).write_text("v = int.from_bytes(b, 'little')\n")
    monkeypatch.setattr(lint, "ROOT", tmp_path)
    assert sorted(problem.split(":")[0] for problem in lint.lint_xor_chains()) == [
        "src/repro/fs/ixt3/ixt3.py", "src/repro/redundancy/rdp.py"]
