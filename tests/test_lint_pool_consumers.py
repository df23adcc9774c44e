"""``tools/lint_generic_ops.py`` keeps the worker pool to one consumer:
outside ``common/pool.py`` and ``fleet/``, no module under
``src/repro`` imports ``repro.common.pool`` — and the tree has none."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "lint_generic_ops.py"
_spec = importlib.util.spec_from_file_location("lint_generic_ops", _TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def _flagged(source: str):
    return sorted(set(lint._pool_import_lines(ast.parse(source))))


def test_flags_every_import_form():
    assert _flagged(
        "from repro.common.pool import pool_map\n"                   # 1
        "import repro.common.pool\n"                                 # 2
        "import repro.common.pool as pool\n"                         # 3
        "from repro.common import pool\n"                            # 4
        "def run():\n"
        "    from repro.common.pool import effective_jobs\n"         # 6
    ) == [1, 2, 3, 4, 6]


def test_passes_look_alikes():
    assert _flagged(
        "from repro.common import errors, units\n"
        "from repro.common.rng import stream\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "pool = None\n"
        "note = 'repro.common.pool'\n"                               # a string
    ) == []


def test_only_the_fleet_uses_the_pool():
    assert lint.lint_pool_consumers() == []
