"""``tools/lint_generic_ops.py`` keeps two deletions deleted: the list
protocol on ``SlabImage`` (``__len__``, ``__getitem__``, ``__iter__``,
``from_blocks``) and any class named ``Scrubber`` — and the tree has
neither."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "lint_generic_ops.py"
_spec = importlib.util.spec_from_file_location("lint_generic_ops", _TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def _flagged(source: str):
    return sorted(lint._history_only(ast.parse(source)))


def test_flags_the_list_protocol_and_a_scrubber():
    assert _flagged(
        "class SlabImage:\n"                                     # 1
        "    def __len__(self): return self.num_blocks\n"        # 2
        "    def __getitem__(self, i): return self.block(i)\n"   # 3
        "    def __iter__(self): yield from ()\n"                # 4
        "    @classmethod\n"                                     # 5
        "    def from_blocks(cls, blocks, bs): pass\n"           # 6
        "    __iter__ = None\n"                                  # 7
        "class Scrubber:\n"                                      # 8
        "    pass\n"                                             # 9
        "def f():\n"                                             # 10
        "    class Scrubber(Base): pass\n"                       # 11
    ) == [(2, "SlabImage.__len__"), (3, "SlabImage.__getitem__"),
          (4, "SlabImage.__iter__"), (6, "SlabImage.from_blocks"),
          (7, "SlabImage.__iter__"), (8, "class Scrubber"),
          (11, "class Scrubber")]


def test_passes_the_kept_shape_and_look_alikes():
    assert _flagged(
        "class SlabImage:\n"
        "    def block(self, i): pass\n"
        "    def view(self, i): pass\n"
        "    def __eq__(self, other): pass\n"
        "    def __reduce__(self): pass\n"
        "class ArraySnapshot:\n"
        "    def __len__(self): return len(self.members)\n"
        "    def __iter__(self): return iter(self.members)\n"
        "class ScrubReport: pass\n"
        "class ArrayScrubReport: pass\n"
        "def from_blocks(blocks): pass\n"
        "scrubber = Ixt3.scrub\n"
    ) == []


def test_the_tree_has_neither():
    assert lint.lint_history_only() == []
