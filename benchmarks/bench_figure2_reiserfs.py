"""Figure 2 (ReiserFS panels): the full fingerprint of ReiserFS, with
§5.2's headline findings asserted on the result."""

from conftest import record_bench_result, run_once, save_result

from repro.bench.records import fingerprint_record
from repro.fingerprint import Fingerprinter
from repro.fingerprint.adapters import make_reiserfs_adapter
from repro.taxonomy import Detection, Recovery, render_full_figure


def test_figure2_reiserfs(benchmark):
    fp = Fingerprinter(make_reiserfs_adapter())
    matrix = run_once(benchmark, fp.run)
    record_bench_result("figure2_reiserfs", fingerprint_record(fp, matrix))
    save_result("figure2_reiserfs", render_full_figure(matrix)
                + f"\n\ntests run: {fp.tests_run}")

    counts = matrix.technique_counts()

    # §5.2: error codes checked across reads AND writes.
    assert counts.get(Detection.ERROR_CODE, 0) > 100

    # §5.2: "first, do no harm" — write failures overwhelmingly panic.
    write_cells = [obs for (fc, bt, wl), obs in matrix.cells.items()
                   if fc == "write-failure"]
    stops = sum(1 for obs in write_cells if Recovery.STOP in obs.recovery)
    assert write_cells
    assert stops / len(write_cells) > 0.8, "ReiserFS must panic on most write failures"

    # §5.2: the ordered-data-write exception exists (R_zero cells among
    # the write failures).
    zero_writes = [
        (bt, wl) for (fc, bt, wl), obs in matrix.cells.items()
        if fc == "write-failure" and obs.is_zero()
    ]
    assert any(bt == "data" for bt, _ in zero_writes), \
        "the ordered data-write bug should appear as R_zero for data"

    # §5.2: heavy sanity checking (tree block headers, magic numbers).
    assert counts.get(Detection.SANITY, 0) > 30

    # §5.2: a single retry exists for data reads; no redundancy at all.
    assert counts.get(Recovery.RETRY, 0) >= 1
    assert counts.get(Recovery.REDUNDANCY, 0) == 0
