#!/usr/bin/env python3
"""Quickstart: mount a simulated ext3 volume, break it, then watch the
IRON version (ixt3) shrug off the same faults.

Run:  python examples/quickstart.py
"""

from repro.common.errors import FSError
from repro.disk import DeviceStack, corruption, make_disk, read_failure
from repro.fs.ext3 import Ext3, Ext3Config, mkfs_ext3
from repro.fs.ixt3 import Ixt3, ixt3_config, mkfs_ixt3


def populate(fs):
    fs.mkdir("/photos")
    fs.write_file("/photos/vacation.jpg", b"\x89JPG" + bytes(range(256)) * 40)
    fs.write_file("/taxes.txt", b"very important numbers\n" * 30)


def demo_ext3():
    print("=== ext3: trusts the disk ===")
    cfg = Ext3Config()  # a tiny volume; see Ext3Config for the knobs
    disk = make_disk(cfg.total_blocks, cfg.block_size)
    mkfs_ext3(disk, cfg)

    fs = Ext3(disk)
    fs.mount()
    populate(fs)
    print("created", fs.getdirentries("/"), "-", fs.statfs().free_blocks, "blocks free")
    fs.unmount()

    # Remount behind a fault injector and fail the next inode read —
    # a latent sector error under the inode table.
    stack = DeviceStack(disk, inject=True)  # disk -> injector, one event stream
    injector = stack.injector
    fs = Ext3(stack)
    fs.mount()
    injector.set_type_oracle(fs.block_type)  # type-aware injection
    injector.arm(read_failure("inode"))
    try:
        fs.stat("/taxes.txt")
    except FSError as exc:
        print("stat after latent sector error:", exc.errno.name, "- data out of reach")

    # Silent corruption is worse: ext3 happily serves garbage.
    injector.clear_faults()
    injector.arm(corruption("data"))
    data = fs.read_file("/taxes.txt")
    print("read after silent corruption:",
          "garbage served without any error!" if b"important" not in data else "ok?")


def demo_ixt3():
    print()
    print("=== ixt3: doesn't trust the disk ===")
    base = Ext3Config()
    cfg = ixt3_config(base)
    disk = make_disk(cfg.total_blocks, cfg.block_size)
    mkfs_ixt3(disk, base, config=cfg)  # all IRON features on

    fs = Ixt3(disk)
    fs.mount()
    populate(fs)
    fs.unmount()

    stack = DeviceStack(disk, inject=True)
    injector = stack.injector
    fs = Ixt3(stack)
    fs.mount()
    injector.set_type_oracle(fs.block_type)

    injector.arm(read_failure("inode"))
    st = fs.stat("/taxes.txt")
    print("stat after latent sector error: size =", st.size,
          "(recovered from the metadata replica)")

    injector.clear_faults()
    injector.arm(corruption("data"))
    data = fs.read_file("/taxes.txt")
    print("read after silent corruption:",
          "intact (checksum caught it, parity rebuilt it)"
          if b"important" in data else "garbage?!")

    for record in fs.syslog.records:
        if record.tag in ("checksum-mismatch", "redundancy-used"):
            print("  syslog:", record.tag, "-", record.message)


if __name__ == "__main__":
    demo_ext3()
    demo_ixt3()
