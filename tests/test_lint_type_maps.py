"""``tools/lint_generic_ops.py`` keeps the block-type maps behind
``JournaledFS``'s type-map methods: a ``._types`` / ``._jtypes``
attribute anywhere else under ``src/repro`` would bypass the overlay a
deferred walk applies — and the tree has no such use."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "lint_generic_ops.py"
_spec = importlib.util.spec_from_file_location("lint_generic_ops", _TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)

_SOURCE = (
    "class JournaledFS:\n"                                  # 1
    "    def __init__(self):\n"                             # 2
    "        self._types = {}\n"                            # 3
    "    def _set_type(self, block, kind):\n"               # 4
    "        self._types[block] = kind\n"                   # 5
    "    def _helper(self):\n"                              # 6
    "        return self._jtypes\n"                         # 7
    "class Ext3(JournaledFS):\n"                            # 8
    "    def _alloc(self, bno):\n"                          # 9
    "        self._types[bno] = 'data'\n"                   # 10
    "def poke(fs):\n"                                       # 11
    "    fs._jtypes.pop(3, None)\n"                         # 12
)


def test_flags_every_use_outside_the_type_map_methods():
    uses = sorted(lint._type_map_uses(ast.parse(_SOURCE),
                                      frozenset({"__init__", "_set_type"})))
    assert uses == [(7, "self._jtypes"), (10, "self._types"),
                    (12, "fs._jtypes")]


def test_outside_fs_base_no_method_is_exempt():
    uses = sorted(lint._type_map_uses(ast.parse(_SOURCE)))
    assert [line for line, _ in uses] == [3, 5, 7, 10, 12]


def test_the_tree_touches_the_maps_only_through_them():
    assert lint.lint_type_maps() == []
