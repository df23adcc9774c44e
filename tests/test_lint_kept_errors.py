"""``tools/lint_generic_ops.py`` rejects a caught error kept past its
handler: under ``src/repro``, no ``except ... as NAME:`` body binds NAME
to another target — and the tree has none."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "lint_generic_ops.py"
_spec = importlib.util.spec_from_file_location("lint_generic_ops", _TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def _flagged(source: str):
    return sorted(lint._kept_errors(ast.parse(source)))


def test_flags_every_binding_of_the_caught_name():
    assert _flagged(
        "for attempt in range(3):\n"
        "    try:\n"
        "        read()\n"
        "    except DiskError as exc:\n"
        "        last = exc\n"                                   # 5
        "try:\n"
        "    read()\n"
        "except (ReadError, WriteError) as err:\n"
        "    if retry:\n"
        "        self.failure = err\n"                           # 10
        "    saved: Exception = err\n"                           # 11
        "    log((kept := err))\n"                               # 12
    ) == [(5, "exc"), (10, "err"), (11, "err"), (12, "err")]


def test_passes_uses_that_end_with_the_handler():
    assert _flagged(
        "try:\n"
        "    read()\n"
        "except DiskError as exc:\n"
        "    panic = str(exc)\n"
        "    recovered = recover(block, exc)\n"
        "    exc = None\n"
        "    raise FSError(EIO, 'unreadable') from exc\n"
        "try:\n"
        "    read()\n"
        "except DiskError:\n"
        "    last = None\n"
    ) == []


def test_the_tree_keeps_no_caught_error():
    assert lint.lint_kept_errors() == []
