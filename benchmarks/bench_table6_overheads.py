"""Table 6: run time of all 32 ixt3 variants under SSH-Build, Web
server, PostMark and TPC-B, normalized to the no-feature baseline, with
the paper's numbers printed alongside.

Absolute numbers come from the simulator's virtual disk clock; the
claims checked are the paper's *shape* claims (§6.2):

1. SSH-Build and the web server see little overhead even with every
   IRON technique enabled.
2. Metadata replication (Mr) and data checksumming (Dc) carry the
   noticeable costs on the metadata-intensive workloads.
3. Metadata checksums (Mc) and user parity (Dp) are cheap.
4. The transactional checksum (Tc) *speeds up* the synchronous TPC-B
   workload by roughly 20%, and substantially reduces the all-features
   overhead.
"""

from conftest import record_bench_result, run_once, save_result

from repro.bench.harness import run_table6
from repro.bench.paperdata import VARIANT_ORDER
from repro.bench.records import table6_record


def _row(run, bench, features):
    return run.normalized(bench)[VARIANT_ORDER.index(features)]


def test_table6_overheads(benchmark):
    run = run_once(benchmark, run_table6)
    record_bench_result("table6_overheads", table6_record(run))
    save_result("table6_overheads", run.render())

    # 1. SSH / Web: little overhead even with everything on.
    assert _row(run, "SSH", ("Mc", "Mr", "Dc", "Dp", "Tc")) < 1.10
    assert all(abs(x - 1.0) < 0.03 for x in run.normalized("Web"))

    # 2. Mr is a noticeable cost on PostMark and TPC-B.
    assert _row(run, "Post", ("Mr",)) > 1.08
    assert _row(run, "TPCB", ("Mr",)) > 1.08

    # 3. Mc and Dp are cheap on SSH-Build and TPC-B.
    assert _row(run, "SSH", ("Mc",)) < 1.05
    assert _row(run, "TPCB", ("Mc",)) < 1.05
    assert _row(run, "TPCB", ("Dp",)) < 1.15

    # 4. Tc speeds up TPC-B by roughly 20% alone...
    tc = _row(run, "TPCB", ("Tc",))
    assert 0.70 <= tc <= 0.90, f"Tc speedup out of range: {tc}"
    # ...and pulls the all-features overhead well below the Tc-less one.
    all4 = _row(run, "TPCB", ("Mc", "Mr", "Dc", "Dp"))
    all5 = _row(run, "TPCB", ("Mc", "Mr", "Dc", "Dp", "Tc"))
    assert all5 < all4 - 0.10

    # Overheads compose roughly monotonically: every variant costs at
    # least (nearly) as much as the baseline unless it includes Tc.
    for bench in ("SSH", "Post"):
        for i, features in enumerate(VARIANT_ORDER):
            if "Tc" in features:
                continue
            assert run.normalized(bench)[i] > 0.97
