#!/usr/bin/env python3
"""A tour of crash consistency in the simulated journaling stack.

Walks through the journal lifecycle step by step — commit, checkpoint,
power loss, replay — and then shows the transactional checksum (Tc)
refusing to replay a torn transaction that plain ext3 would happily
apply as garbage.

Run:  python examples/crash_consistency_tour.py
"""

from repro.disk import make_disk
from repro.fs.ext3 import Ext3, Ext3Config, fsck_ext3, mkfs_ext3
from repro.fs.ext3.journal import parse_desc
from repro.fs.ixt3 import FEAT_TXN_CSUM, Ixt3, ixt3_config, mkfs_ixt3


def banner(text):
    print()
    print(f"## {text}")


def tour_basic_journaling():
    banner("1. the journal makes committed work durable, uncommitted work vanish")
    cfg = Ext3Config()
    disk = make_disk(cfg.total_blocks, cfg.block_size)
    mkfs_ext3(disk, cfg)
    fs = Ext3(disk, sync_mode=False)
    fs.mount()

    fs.write_file("/committed", b"this transaction reached the log")
    fs.journal.commit()  # in the journal, home locations still stale
    fs.write_file("/uncommitted", b"this one never did")
    fs.crash()  # power loss

    fs2 = Ext3(disk)
    fs2.mount()  # recovery replays the log
    print("after crash + replay:")
    print("  /committed   ->", fs2.read_file("/committed").decode())
    print("  /uncommitted ->", "exists" if fs2.exists("/uncommitted") else "gone (correct)")
    print("  syslog:", [r.message for r in fs2.syslog.records if r.tag == "recovery"])
    fs2.unmount()
    print("  fsck:", "clean" if fsck_ext3(disk).clean else "DAMAGED")


def torn_transaction(disk, cfg, fs_cls, label):
    """Crash with a committed txn whose journaled copy then rots."""
    fs = fs_cls(disk)
    fs.mount()
    fs.write_file("/safe", b"previous generation")
    fs.crash_after(lambda f: f.write_file("/torn", b"mid-flight"))
    # One journaled copy is damaged at rest (a torn concurrent write or
    # latent corruption in the journal area).
    for pos in range(1, cfg.journal_blocks):
        if parse_desc(disk.peek(cfg.journal_start + pos)):
            disk.poke(cfg.journal_start + pos + 1, b"\xa5" * cfg.block_size)
            break
    fs2 = fs_cls(disk)
    fs2.mount()
    print(f"{label}:")
    print("  /safe ->", fs2.read_file("/safe").decode()
          if fs2.exists("/safe") else "MISSING")
    print("  /torn ->", "replayed" if fs2.exists("/torn") else "not replayed")
    caught = fs2.syslog.has_event("txn-checksum-mismatch")
    print("  torn transaction detected:", "yes" if caught else "no")
    fs2.unmount()
    report = fsck_ext3(disk)
    print("  fsck:", "clean" if report.clean else "DAMAGED -> " + report.messages[0])


def tour_torn_transactions():
    banner("2. plain ext3 replays a corrupted journal copy blindly")
    cfg = Ext3Config()
    disk = make_disk(cfg.total_blocks, cfg.block_size)
    mkfs_ext3(disk, cfg)
    torn_transaction(disk, cfg, Ext3, "ext3 (no transactional checksum)")

    banner("3. ixt3's transactional checksum refuses the torn transaction")
    base = Ext3Config()
    icfg = ixt3_config(base)
    disk = make_disk(icfg.total_blocks, icfg.block_size)
    mkfs_ixt3(disk, base, features=FEAT_TXN_CSUM, config=icfg)
    torn_transaction(disk, icfg, Ixt3, "ixt3 (Tc enabled)")


def tour_repair():
    banner("4. and when damage does land, fsck puts the volume back together")
    cfg = Ext3Config()
    disk = make_disk(cfg.total_blocks, cfg.block_size)
    mkfs_ext3(disk, cfg)
    fs = Ext3(disk)
    fs.mount()
    fs.write_file("/f", b"x" * 5000)
    fs.unmount()
    disk.poke(cfg.block_bitmap_block(0), b"\xff" * cfg.block_size)  # leak everything
    print("  before:", fsck_ext3(disk).render().splitlines()[0])
    fsck_ext3(disk, repair=True)
    print("  after repair:", fsck_ext3(disk).render())


if __name__ == "__main__":
    tour_basic_journaling()
    tour_torn_transactions()
    tour_repair()
