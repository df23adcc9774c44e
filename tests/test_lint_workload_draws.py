"""``tools/lint_generic_ops.py`` keeps the Table-6 generators on their
tape: in ``bench/workloads.py`` only ``class Tape`` may use a name bound
from ``random`` or ``repro.common.rng``, or the tape's ``_recording``
stream — and the tree has no other use."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "lint_generic_ops.py"
_spec = importlib.util.spec_from_file_location("lint_generic_ops", _TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def _flagged(source: str):
    return sorted(lint._untaped_draws(ast.parse(source)))


def test_flags_every_random_source_outside_the_tape():
    assert _flagged(
        "import random\n"                                            # 1
        "import repro.common.rng\n"                                  # 2
        "from repro.common.rng import random_bytes, stream as _s\n"  # 3
        "from repro.common import rng as R\n"                        # 4
        "from random import Random\n"                                # 5
        "def ssh_build(fs, scale, seed=1):\n"                        # 6
        "    a = _s(seed)\n"                                         # 7
        "    b = random_bytes(a, 8)\n"                               # 8
        "    c = random.Random(seed).randrange(4)\n"                 # 9
        "    d = Random(seed)\n"                                     # 10
        "    e = R.stream(seed)\n"                                   # 11
        "    f = repro.common.rng.random_bytes(a, 4)\n"              # 12
        "    g = TAPES['x']._recording.randrange(4)\n"               # 13
    ) == [(7, "_s"), (8, "random_bytes"), (9, "random.Random"),
          (10, "Random"), (11, "R.stream"),
          (12, "repro.common.rng.random_bytes"),
          (13, "TAPES['x']._recording")]


def test_passes_draws_through_the_tape():
    assert _flagged(
        "import random\n"
        "from repro.common.rng import random_bytes, stream as _seeded_stream\n"
        "class Tape:\n"
        "    def open(self, scale, seed):\n"
        "        self._recording = _seeded_stream(seed)\n"
        "    def payload(self, n):\n"
        "        return random_bytes(self._recording, n)\n"
        "    def spare(self):\n"
        "        return random.Random(0)\n"
        "def postmark(fs, scale, seed=4):\n"
        "    with TAPES['postmark'].open(scale, seed) as draws:\n"
        "        fs.write_file('/a', draws.payload(draws.randrange(9)))\n"
        "        randomness = stream = 3\n"
    ) == []


def test_the_generators_draw_only_through_the_tape():
    assert lint.lint_workload_draws() == []
