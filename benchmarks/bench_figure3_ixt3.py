"""Figure 3: the ixt3 failure-policy fingerprint with every IRON
feature enabled, plus the §6.2 robustness count ("detects and recovers
from over 200 possible different partial-error scenarios")."""

from conftest import record_bench_result, run_once, save_result

from repro.bench.paperdata import PAPER_IXT3_SCENARIOS
from repro.bench.records import fingerprint_record
from repro.fingerprint import Fingerprinter
from repro.fingerprint.adapters import make_ixt3_adapter
from repro.taxonomy import Detection, Recovery, render_full_figure


def test_figure3_ixt3(benchmark):
    fp = Fingerprinter(make_ixt3_adapter())
    matrix = run_once(benchmark, fp.run)
    record_bench_result("figure3_ixt3", fingerprint_record(fp, matrix))

    counts = matrix.technique_counts()
    covered, total = matrix.coverage()
    handled = sum(
        1 for obs in matrix.cells.values()
        if (Recovery.REDUNDANCY in obs.recovery
            or Recovery.PROPAGATE in obs.recovery
            or Recovery.STOP in obs.recovery
            or Recovery.RETRY in obs.recovery)
    )
    summary = [
        render_full_figure(matrix),
        "",
        f"tests run: {fp.tests_run}",
        f"cells with a defined policy: {covered}/{total}",
        f"scenarios detected and handled: {handled} "
        f"(paper: over {PAPER_IXT3_SCENARIOS})",
        f"R_redundancy cells: {counts.get(Recovery.REDUNDANCY, 0)}",
        f"D_redundancy (checksum) cells: {counts.get(Detection.REDUNDANCY, 0)}",
    ]
    save_result("figure3_ixt3", "\n".join(summary))

    # §6.2: over 200 induced partial-error scenarios detected + handled.
    assert handled > PAPER_IXT3_SCENARIOS

    # §6.2: checksums detect corruption (D_redundancy), replicas and
    # parity recover lost blocks (R_redundancy).
    assert counts.get(Detection.REDUNDANCY, 0) > 30
    assert counts.get(Recovery.REDUNDANCY, 0) > 60

    # Write failures stop the file system instead of being ignored.
    write_cells = [obs for (fc, bt, wl), obs in matrix.cells.items()
                   if fc == "write-failure"]
    stops = sum(1 for obs in write_cells if Recovery.STOP in obs.recovery)
    assert write_cells and stops / len(write_cells) > 0.8

    # A well-defined failure policy: almost no Zero cells remain.
    zero = sum(1 for obs in matrix.cells.values() if obs.is_zero())
    assert zero / total < 0.10
