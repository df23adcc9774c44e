"""``tools/lint_generic_ops.py`` keeps superblock configs interned: a
direct ``Ext3Config`` / ``JFSConfig`` / ``ReiserConfig`` call that reads
a field would give every mount its own config again, recomputing the
layout its cached properties hold — and the tree has no such call."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "lint_generic_ops.py"
_spec = importlib.util.spec_from_file_location("lint_generic_ops", _TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)

_SOURCE = (
    "GEOMETRY = Ext3Config(block_size=1024, num_groups=2)\n"     # 1
    "DEFAULT = JFSConfig()\n"                                     # 2
    "def mount(self, sb):\n"                                      # 3
    "    self.config = Ext3Config(block_size=sb.block_size)\n"    # 4
    "    other = config.JFSConfig(sb.block_size)\n"               # 5
    "    cfg = ReiserConfig(total_blocks=int(self.sb.total))\n"   # 6
    "    cfg = interned(ReiserConfig, block_size=sb.block_size)\n"  # 7
    "    cfg = NTFSConfig(block_size=sb.block_size)\n"            # 8
)


def test_flags_configs_built_from_fields_only():
    builds = sorted(lint._config_builds(ast.parse(_SOURCE)))
    assert builds == [(4, "Ext3Config"), (5, "JFSConfig"),
                      (6, "ReiserConfig")]


def test_the_tree_builds_superblock_configs_only_through_interned():
    assert lint.lint_config_interning() == []
