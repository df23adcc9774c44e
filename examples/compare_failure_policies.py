#!/usr/bin/env python3
"""Side-by-side failure policies: the same fault, four file systems.

For each of a handful of representative faults, runs the identical
scenario against ext3, ReiserFS, JFS and NTFS and prints what each one
did — the paper's §5.5 summary ("Overall simplicity", "First, do no
harm", "The kitchen sink", "Persistence is a virtue") as a live demo.

Run:  python examples/compare_failure_policies.py
"""

from repro.common.errors import FSError, KernelPanic
from repro.disk import (
    Fault,
    DeviceStack,
    FaultKind,
    FaultOp,
    Persistence,
    make_disk,
)
from repro.fs.ext3 import Ext3, Ext3Config, mkfs_ext3
from repro.fs.jfs import JFS, JFSConfig, mkfs_jfs
from repro.fs.ntfs import NTFS, NTFSConfig, mkfs_ntfs
from repro.fs.reiserfs import ReiserConfig, ReiserFS, mkfs_reiserfs

SYSTEMS = {
    "ext3": (Ext3, Ext3Config(ptrs_per_block=8), mkfs_ext3,
             {"meta": "inode", "data": "data"}),
    "reiserfs": (ReiserFS, ReiserConfig(), mkfs_reiserfs,
                 # With one file the whole tree is a single root leaf.
                 {"meta": "root", "data": "data"}),
    "jfs": (JFS, JFSConfig(), mkfs_jfs,
            {"meta": "inode", "data": "data"}),
    "ntfs": (NTFS, NTFSConfig(), mkfs_ntfs,
             {"meta": "MFT", "data": "data"}),
}


def fresh(name):
    fs_cls, cfg, mkfs, types = SYSTEMS[name]
    disk = make_disk(cfg.total_blocks, cfg.block_size)
    mkfs(disk, cfg)
    fs = fs_cls(disk)
    fs.mount()
    fs.write_file("/file", b"the file contents " * 100)
    fs.unmount()
    stack = DeviceStack(disk, inject=True)
    fs = fs_cls(stack)
    fs.mount()
    stack.injector.set_type_oracle(fs.block_type)
    return stack.injector, fs, types


def outcome(action):
    try:
        action()
        return "succeeded"
    except KernelPanic as exc:
        return f"KERNEL PANIC ({exc.reason})"
    except FSError as exc:
        return f"error {exc.errno.name}"


def scenario(title, fault_builder, action_builder):
    print(f"--- {title} ---")
    for name in SYSTEMS:
        injector, fs, types = fresh(name)
        injector.arm(fault_builder(types))
        result = outcome(lambda: action_builder(fs))
        events = {r.tag for r in fs.syslog.records} & {
            "read-error", "write-error", "read-retry", "write-retry",
            "sanity-fail", "remount-ro", "journal-abort", "silent-failure",
            "ignored-error", "redundancy-used", "unmountable",
        }
        extra = f"  [{', '.join(sorted(events))}]" if events else ""
        print(f"  {name:9} -> {result}{extra}")
    print()


def main() -> None:
    scenario(
        "sticky read failure on a metadata block",
        lambda t: Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block_type=t["meta"]),
        lambda fs: fs.stat("/file"),
    )
    scenario(
        "one transient read glitch on the same block",
        lambda t: Fault(op=FaultOp.READ, kind=FaultKind.FAIL, block_type=t["meta"],
                        persistence=Persistence.TRANSIENT, transient_count=1),
        lambda fs: fs.stat("/file"),
    )
    scenario(
        "write failure while creating a file",
        lambda t: Fault(op=FaultOp.WRITE, kind=FaultKind.FAIL, block_type=t["meta"]),
        lambda fs: fs.write_file("/new", b"x" * 2048),
    )
    scenario(
        "silent corruption of a metadata block",
        lambda t: Fault(op=FaultOp.READ, kind=FaultKind.CORRUPT, block_type=t["meta"]),
        lambda fs: fs.stat("/file"),
    )


if __name__ == "__main__":
    main()
