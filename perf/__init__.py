"""Performance ledger for the IRON-FS reproduction (see perf/README.md).

Importing any ``perf`` module makes the program under ``src/`` importable,
so ``python3 perf/run.py`` and ``python -m pytest perf`` need no
``PYTHONPATH``.
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
