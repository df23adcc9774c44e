"""``tools/lint_generic_ops.py`` keeps the generic read-only bodies on
``_node_peek``: ``_lookup``, ``_stat_of``, ``_do_read``,
``getdirentries`` and ``readlink`` may not name ``_node_get`` or
``_node_get_for_update``, which build a mutable copy for an update —
and ``JournaledFS`` defines ``_node_peek`` once, as a primitive."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "lint_generic_ops.py"
_spec = importlib.util.spec_from_file_location("lint_generic_ops", _TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)

_BODIES = (
    "    def _lookup(self, path):\n"                          # 2
    "        return self._node_peek(1)\n"                     # 3
    "    def _do_read(self, fd, size, offset):\n"             # 4
    "        return self._node_peek(1)\n"                     # 5
    "    def readlink(self, path):\n"                         # 6
    "        def body():\n"                                   # 7
    "            return self._node_peek(1)\n"                 # 8
    "        return body()\n"                                 # 9
)

_SEEDED = (
    "class JournaledFS:\n"                                    # 1
    + _BODIES +
    "    def _stat_of(self, handle):\n"                       # 10
    "        return self._node_get(handle)\n"                 # 11
    "    def getdirentries(self, path):\n"                    # 12
    "        def body():\n"                                   # 13
    "            return self._node_get_for_update(2)\n"       # 14
    "        return body()\n"                                 # 15
    "    def _node_peek(self, handle):\n"                     # 16
    "        return self._node_get(handle)\n"                 # 17
    "    def unlink(self, path):\n"                           # 18
    "        return self._node_get(3)\n"                      # 19
    "class Ext3(JournaledFS):\n"                              # 20
    "    def _stat_of(self, handle):\n"                       # 21
    "        return self._node_get(handle)\n"                 # 22
)


def test_a_read_only_body_that_copies_is_flagged():
    problems = lint.node_peek_problems(ast.parse(_SEEDED))
    assert [line for line, _ in problems] == [11, 14]
    assert "_stat_of reads a node through _node_get" in problems[0][1]
    assert "_node_get_for_update" in problems[1][1]


def test_peek_must_be_defined_once_and_every_body_present():
    source = "class JournaledFS:\n" + _BODIES
    messages = [message for _, message in lint.node_peek_problems(ast.parse(source))]
    assert messages == [
        "_node_peek defined 0 times in JournaledFS, expected exactly once",
        "read-only body _stat_of is not defined in JournaledFS",
        "read-only body getdirentries is not defined in JournaledFS",
    ]


def test_the_tree_reads_through_peek():
    assert lint.lint_node_peek() == []
