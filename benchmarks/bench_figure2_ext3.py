"""Figure 2 (ext3 panels): the full failure-policy fingerprint of ext3.

Regenerates the detection and recovery matrices for read failures,
write failures, and corruption across every block type and workload,
and checks the headline §5.1 findings hold in the result.
"""

from conftest import record_bench_result, run_once, save_result

from repro.bench.records import fingerprint_record
from repro.fingerprint import Fingerprinter
from repro.fingerprint.adapters import make_ext3_adapter
from repro.taxonomy import Detection, Recovery, render_full_figure


def test_figure2_ext3(benchmark):
    fp = Fingerprinter(make_ext3_adapter())
    matrix = run_once(benchmark, fp.run)
    record_bench_result("figure2_ext3", fingerprint_record(fp, matrix))
    save_result("figure2_ext3", render_full_figure(matrix)
                + f"\n\ntests run: {fp.tests_run}")

    counts = matrix.technique_counts()

    # §5.1: reads are checked via error codes and mostly propagated.
    assert counts.get(Detection.ERROR_CODE, 0) > 30
    assert counts.get(Recovery.PROPAGATE, 0) > 30

    # §5.1: write errors are ignored — every write-failure cell is
    # D_zero/R_zero.
    write_cells = [obs for (fc, bt, wl), obs in matrix.cells.items()
                   if fc == "write-failure"]
    assert write_cells
    assert all(obs.is_zero() for obs in write_cells), \
        "ext3 checked a write error somewhere"

    # §5.1: some sanity checking, sparing retry, no redundancy.
    assert counts.get(Detection.SANITY, 0) > 5
    assert counts.get(Recovery.REDUNDANCY, 0) == 0
    assert counts.get(Recovery.RETRY, 0) >= 1

    # §5.1: read failures often abort the journal (R_stop).
    assert counts.get(Recovery.STOP, 0) > 10
