"""Pin of every policy-inference verdict the fingerprint matrices hold.

For each matrix — the five file systems under NOISE corruption, ixt3
under FIELD corruption, and the redundancy-array matrix of
:func:`~repro.redundancy.fingerprint.run_array_fingerprint` — one
SHA-256 over every cell's detection levels, recovery levels, notes and
provenance references, plus the cells marked not applicable.
``PINNED`` holds the digests captured at commit 206ab4d, before
inference read its counts from one pass over each run; a change to
``RunObservation`` or ``infer_policy`` that moves one level, one note
or one evidence reference of one cell moves its matrix's digest.  Leave
the literals unedited.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.disk.faults import CorruptionMode
from repro.fingerprint.adapters import ADAPTERS
from repro.fingerprint.harness import Fingerprinter
from repro.redundancy.fingerprint import run_array_fingerprint

PINNED = {
    "ext3/noise": "774d697de079f50350818e3b2c031ec16b2af982fb1d444765480a6689153f55",
    "reiserfs/noise": "cb965c151a1f50cbe13e996c161ff22d2392d6e0446b49d1854283b5c0113972",
    "jfs/noise": "9627eca038d7cb0afc1d11cf7752f3f38cdeb9dfc45eef5dbdc6dc16a9d8483b",
    "ntfs/noise": "4916508e499e40bee00255ffd61f6bd9d3012067fa7c4863a5336705975ff30e",
    "ixt3/noise": "a7386c574417f9b9555db1d86a70d67f77d25c1d9f23c1a95590fbaf0dbd898a",
    # ixt3's checksums catch a field-corrupted block exactly as they
    # catch a noisy one, so both modes give the same verdicts.
    "ixt3/field": "a7386c574417f9b9555db1d86a70d67f77d25c1d9f23c1a95590fbaf0dbd898a",
    "array": "6c7cfa26db794b56afb1dc3afa25a887e424f912841ef870f0565c3bc369f0a9",
}


def _matrix_digest(matrix) -> str:
    cells = [
        [list(key), sorted(d.name for d in obs.detection),
         sorted(r.name for r in obs.recovery),
         list(obs.notes), list(obs.provenance)]
        for key, obs in sorted(matrix.cells.items())
    ]
    blob = json.dumps([matrix.fs_name, cells,
                       sorted(matrix.not_applicable)])
    return hashlib.sha256(blob.encode()).hexdigest()


def _fs_matrix(fs: str, mode: CorruptionMode):
    return Fingerprinter(ADAPTERS[fs](), corruption_mode=mode).run()


@pytest.mark.parametrize("label", [k for k in PINNED if k != "array"])
def test_file_system_matrix_is_pinned(label):
    fs, mode = label.split("/")
    matrix = _fs_matrix(fs, CorruptionMode(mode))
    assert matrix.cells, "a matrix with no classified cell pins nothing"
    assert _matrix_digest(matrix) == PINNED[label]


def test_array_matrix_is_pinned():
    result = run_array_fingerprint()
    digest = hashlib.sha256("".join(
        _matrix_digest(matrix) for matrix in result.matrices.values()
    ).encode()).hexdigest()
    assert digest == PINNED["array"]
