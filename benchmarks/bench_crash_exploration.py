"""Crash-state exploration: the §2.2 / §6.1 differential headline.

One exploration per file system over the `creat` workload.  The
regenerated artifact is the per-FS state/violation table — stock ext3's
torn-journal failures against ixt3+Tc's near-clean sheet.
"""

from conftest import run_once, save_result

from repro.bench.records import crash_record
from repro.crash import explore

FS_ORDER = ["ext3", "ixt3", "reiserfs", "jfs", "ntfs"]


def test_crash_exploration_matrix(benchmark):
    def sweep():
        out = {}
        for fs_key in FS_ORDER:
            report = explore(fs_key, "creat")
            out[fs_key] = crash_record(report)
        return out

    results = run_once(benchmark, sweep)

    lines = [f"{'FS':9} {'writes':>7} {'epochs':>7} {'states':>7} "
             f"{'violations':>11}  by oracle"]
    for fs_key in FS_ORDER:
        rec = results[fs_key]
        by_oracle = ", ".join(
            f"{k}={v}" for k, v in sorted(rec["violations_by_oracle"].items())
        ) or "-"
        lines.append(
            f"{fs_key:9} {rec['writes']:>7} {rec['epochs']:>7} "
            f"{rec['states_explored']:>7} {rec['violations']:>11}  {by_oracle}"
        )
    save_result("crash_exploration", "\n".join(lines))

    assert set(results) == set(FS_ORDER)
    ext3, ixt3 = results["ext3"], results["ixt3"]
    # The acceptance triangle: enough states, a real ext3 failure mode,
    # and Tc closing the window ext3 leaves open.
    assert ext3["states_explored"] >= 50
    assert ext3["violations"] > 0
    assert ixt3["violations"] < ext3["violations"]
