"""Ablation: lazy vs eager detection (§3.2, disk scrubbing).

Latent sector errors hide in rarely-read blocks.  Under lazy (on
access) detection, a workload that only touches hot files never
notices them; one pass of ixt3's own scrub (``Ixt3.scrub``) finds
every one and, with replicas and parity behind it, fixes them on the
spot.
"""

from conftest import run_once, save_result

from repro.disk import DeviceStack, Fault, FaultKind, FaultOp, make_disk
from repro.fs.ext3 import Ext3Config
from repro.fs.ixt3 import Ixt3, ixt3_config, mkfs_ixt3

BASE = Ext3Config(ptrs_per_block=8)
CFG = ixt3_config(BASE)


def build_volume():
    disk = make_disk(CFG.total_blocks, CFG.block_size)
    mkfs_ixt3(disk, BASE, config=CFG)
    fs = Ixt3(disk)
    fs.mount()
    fs.write_file("/hot", b"frequently read " * 16)
    for i in range(6):
        fs.write_file(f"/cold{i}", bytes([i]) * 2048)
    fs.unmount()
    return disk


def test_ablation_scrub(benchmark):
    def run():
        disk = build_volume()
        stack = DeviceStack(disk, inject=True)
        injector = stack.injector
        fs = Ixt3(stack)
        fs.mount()
        injector.set_type_oracle(fs.block_type)

        # Latent sector errors on three cold-file data blocks.
        cold_blocks = [
            b for b in range(disk.num_blocks)
            if fs.block_type(b) == "data"
        ][-6::2]
        for b in cold_blocks:
            injector.arm(Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block=b))

        # Lazy phase: a hot-file-only workload discovers nothing.
        for _ in range(20):
            fs.read_file("/hot")
        lazy_found = sum(1 for e in stack.events.io_events()
                         if e.is_read() and e.outcome == "error")

        # Eager phase: one scrub pass, repairing from replicas/parity.
        stats = fs.scrub()
        intact = sum(fs.read_file(f"/cold{i}") == bytes([i]) * 2048
                     for i in range(6))
        return lazy_found, stats, intact, len(cold_blocks)

    lazy_found, stats, intact, injected = run_once(benchmark, run)
    save_result("ablation_scrub", "\n".join([
        f"latent errors injected: {injected}",
        f"found by 20 rounds of hot-file reads (lazy): {lazy_found}",
        f"found by one scrub pass (eager): {stats['latent']}",
        f"scrubbed {stats['scanned']} blocks: {stats['latent']} latent "
        f"errors, {stats['corrupt']} corruptions, {stats['repaired']} "
        f"repaired, {stats['lost']} lost",
        f"cold files intact after the scrub: {intact} of 6",
    ]))

    # Lazy detection never sees the cold-file errors...
    assert lazy_found == 0
    # ...one eager pass finds every one of them.
    assert stats["latent"] == injected
    # With redundancy available, the scrub repairs what it finds.
    assert stats["repaired"] == injected and stats["lost"] == 0
    assert intact == 6
