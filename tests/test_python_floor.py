"""The Python floor the package promises is the oldest one CI runs.

``pyproject.toml``'s ``requires-python`` and the README state the
floor; ``.github/workflows/ci.yml``'s test matrix is what proves it.
A floor below the matrix promises versions nothing checks (slotted
dataclasses, for one, do not exist before 3.10), and one above it
tests versions the package refuses.  Both files are read as text.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _version(text: str) -> tuple:
    return tuple(int(part) for part in text.strip().strip("\"'").split("."))


def _floor() -> tuple:
    pyproject = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'^requires-python\s*=\s*">=\s*([0-9.]+)"\s*$', pyproject, re.M)
    assert found, "requires-python is not a plain '>=X.Y' floor"
    return _version(found.group(1))


def _ci_versions() -> list:
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    matrices = re.findall(r"python-version:\s*\[([^\]]*)\]", ci)
    assert matrices, "ci.yml has no python-version matrix"
    return [_version(v) for matrix in matrices for v in matrix.split(",")]


def test_the_floor_is_the_lowest_version_ci_tests():
    assert _floor() == min(_ci_versions())


def test_the_readme_states_the_same_floor():
    floor = ".".join(map(str, _floor()))
    assert f"Requires Python ≥ {floor}." in (ROOT / "README.md").read_text()
