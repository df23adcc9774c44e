"""``tools/lint_generic_ops.py`` rejects shared memory under
``src/repro`` — pool tasks take what they need in their pickled
arguments — and the tree has none."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "lint_generic_ops.py"
_spec = importlib.util.spec_from_file_location("lint_generic_ops", _TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def _flagged(source: str):
    return sorted(set(lint._shared_memory_lines(ast.parse(source))))


def test_flags_imports_and_uses():
    assert _flagged(
        "from multiprocessing import shared_memory\n"               # 1
        "import multiprocessing.shared_memory as shm\n"             # 2
        "from multiprocessing.shared_memory import ShareableList\n"  # 3
        "from multiprocessing.shared_memory import SharedMemory\n"   # 4
        "seg = SharedMemory(create=True, size=8)\n"                  # 5
        "seg = mp.shared_memory.SharedMemory(name=n)\n"              # 6
        "def f(s: SharedMemory): pass\n"                             # 7
    ) == [1, 2, 3, 4, 5, 6, 7]


def test_passes_the_pool_and_look_alikes():
    assert _flagged(
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import multiprocessing\n"
        "from multiprocessing import resource_tracker\n"
        "shared = getattr(device, 'events', None)\n"
        "note = 'shared_memory'\n"                                   # a string
        "pool_map(worker, [(snapshot,)], 2)\n"
    ) == []


def test_the_tree_has_no_shared_memory():
    assert lint.lint_shared_memory() == []
