"""Figure 2 (JFS panels): the full fingerprint of JFS — "the kitchen
sink" — with §5.3's findings asserted on the result."""

from conftest import record_bench_result, run_once, save_result

from repro.bench.records import fingerprint_record
from repro.fingerprint import Fingerprinter
from repro.fingerprint.adapters import make_jfs_adapter
from repro.taxonomy import Detection, Recovery, render_full_figure


def test_figure2_jfs(benchmark):
    fp = Fingerprinter(make_jfs_adapter())
    matrix = run_once(benchmark, fp.run)
    record_bench_result("figure2_jfs", fingerprint_record(fp, matrix))
    save_result("figure2_jfs", render_full_figure(matrix)
                + f"\n\ntests run: {fp.tests_run}")

    counts = matrix.technique_counts()

    # §5.3: the generic layer's single retry shows up widely.
    assert counts.get(Recovery.RETRY, 0) > 10

    # §5.3: JFS uses *every* strategy somewhere — the kitchen sink.
    for level in (Detection.ERROR_CODE, Detection.SANITY, Detection.ZERO,
                  Recovery.PROPAGATE, Recovery.STOP, Recovery.ZERO):
        assert counts.get(level, 0) > 0, f"JFS should exhibit {level}"

    # §5.3: the secondary superblock gives JFS the study's only
    # commodity-FS use of redundancy.
    assert counts.get(Recovery.REDUNDANCY, 0) >= 1

    # §5.3: most write errors are ignored.
    write_cells = [obs for (fc, bt, wl), obs in matrix.cells.items()
                   if fc == "write-failure"]
    zero = sum(1 for obs in write_cells if obs.is_zero())
    assert write_cells and zero / len(write_cells) > 0.5

    # §5.3: allocation-map read failures crash the system (the one
    # exception is journal replay, which skips unreadable targets).
    crash_cells = [
        obs for (fc, bt, wl), obs in matrix.cells.items()
        if fc == "read-failure" and bt in ("bmap", "imap")
    ]
    assert crash_cells
    stops = sum(1 for obs in crash_cells if Recovery.STOP in obs.recovery)
    assert stops / len(crash_cells) >= 0.8
