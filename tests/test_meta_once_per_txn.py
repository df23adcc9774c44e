"""Each transaction packs a metadata block, and runs ixt3's derived work
for it, once — and nothing observable moves.

ext3 journals the superblock and group descriptors at their first change
in a transaction and repacks them from memory when it commits; ixt3 runs
a block's checksum and replica work at its first change and marks later
changes pending, to be redone from the final contents at the commit, an
abort, a revoke, a stored-digest lookup or a replica read.  ``Eager`` is
the reference: a test-only subclass that repacks the superblock and GDT
and settles the block after every change, which is what ext3 and ixt3
did before.  Generated syscall sequences (creat, overlapping re-writes,
append, truncate down and up, unlink, mkdir, rename, fsync, sync and
ixt3's ``scrub`` mid-transaction) run on both, on ixt3 under each single
feature and all five and on plain ext3; some volumes start near full, so
writes hit the ENOSPC rollback, and some carry an injected read or write
fault, so the journal aborts or scrub recovers.  After every syscall the
two must agree on the result, the device write stream, the virtual
clock, the event stream, the checksum cache and the replica slots.

Hand mutations this test catches, each applied to a scratch copy of the
tree (the test fails with the mutation in place):

* ``Journal.revoke`` without its ``settle(block)`` call (no revoke flush);
* ``Ext3._abort_journal`` without its ``_settle()`` call (no abort flush);
* ``Ext3._settle`` that never repacks (no superblock repack);
* ``Ext3._capacity_state`` without its ``_settle()`` call (the ENOSPC
  snapshot then drops pending work instead of carrying its result);
* ``ChecksumStore.stored_digest`` without its ``settle`` call (no verify
  flush);
* ``Ixt3._recover_meta_read`` without its ``_settle(block)`` call (a
  replica read past the journal sees a stale copy);
* ``Ixt3._release_parity`` keeping the freed parity block pending;
* ``Journal.commit`` without its ``settle(None)`` call;
* ``Ixt3._sb_gdt_journaled`` ignoring an unplaced superblock replica.

The explicit ``@example`` cases below reach each of these directly.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.bench.harness import features_mask
from repro.common.errors import FSError
from repro.disk import DeviceStack
from repro.disk.faults import Fault, FaultKind, FaultOp
from repro.fs.ext3 import Ext3, Ext3Config, mkfs_ext3
from repro.fs.ext3.structures import pack_gdt
from repro.fs.ixt3 import Ixt3, ixt3_config, mkfs_ixt3
from repro.vfs.fdtable import O_RDWR

KB = 1024
BASE = Ext3Config(block_size=1024, blocks_per_group=256, inodes_per_group=64,
                  num_groups=2, journal_blocks=64, ptrs_per_block=8)

VARIANTS = [("Mc",), ("Mr",), ("Dc",), ("Dp",), ("Tc",),
            ("Mc", "Mr", "Dc", "Dp", "Tc"), "ext3"]

FILES = ["/f0", "/f1", "/d/f2", "/d/f3"]
DIRS = ["/d/e", "/g"]


class EagerExt3(Ext3):
    """ext3 repacking the superblock and GDT at every change."""

    def _sb_gdt_journaled(self, txn) -> bool:
        return False


class EagerIxt3(Ixt3):
    """ixt3 as it was: every change repacks the superblock and GDT and
    runs its checksum and replica work at once."""

    def _sb_gdt_journaled(self, txn) -> bool:
        return False

    def _on_block_contents_change(self, block, data, kind):
        super()._on_block_contents_change(block, data, kind)
        self._settle(block)


class _Run:
    """One file system on a fresh, fault-injecting stack, with every
    block the disk stores recorded."""

    def __init__(self, cls, variant, fill, fault, commit_every):
        cfg = BASE if variant == "ext3" else ixt3_config(BASE)
        stack = DeviceStack.build(cfg.total_blocks, cfg.block_size, inject=True)
        if variant == "ext3":
            mkfs_ext3(stack.disk, cfg)
        else:
            mkfs_ixt3(stack.disk, BASE, features=features_mask(variant), config=cfg)
        self.stack, self.disk = stack, stack.disk
        self.writes = []
        put = self.disk._put

        def tap(block, data):
            self.writes.append((block, hashlib.sha1(data).digest()))
            put(block, data)

        self.disk._put = tap
        self.fs = cls(stack, sync_mode=False, commit_every=commit_every)
        self.fs.mount()
        stack.injector.set_type_oracle(self.fs.block_type)
        self.fs.mkdir("/d")
        # Leave *fill* blocks free (when set), so larger writes are refused.
        for i in range(200 if fill else 0):
            n = min(12, self.fs.statfs().free_blocks - fill - 2)
            if n <= 0:
                break
            self.fs.write_file(f"/fill{i}", b"\xf1" * n * KB)
        self.fs.sync()
        if fault is not None:
            op, block_type, index = fault
            stack.injector.arm(Fault(op=op, kind=FaultKind.FAIL,
                                     block_type=block_type, match_index=index))

    def apply(self, op):
        name, *args = op
        fs = self.fs
        try:
            if name == "write":
                path, offset, length, byte = args
                if not fs.exists(path):
                    fs.close(fs.creat(path))
                fd = fs.open(path, O_RDWR)
                try:
                    fs.write(fd, bytes([byte]) * length, offset)
                finally:
                    fs.close(fd)
            elif name == "append":
                path, length = args
                size = fs.stat(path).size
                fd = fs.open(path, O_RDWR)
                try:
                    fs.write(fd, b"\xa5" * length, size)
                finally:
                    fs.close(fd)
            elif name == "fsync":
                fd = fs.open(args[0], O_RDWR)
                try:
                    fs.fsync(fd)
                finally:
                    fs.close(fd)
            elif name == "creat":
                fs.close(fs.creat(args[0]))
            elif name == "scrub":
                return getattr(fs, "scrub", lambda: None)()
            else:
                return getattr(fs, name)(*args)
        except FSError as exc:
            return ("error", type(exc).__name__, exc.errno.name)
        return None

    def state(self):
        fs = self.fs
        checksums = getattr(fs, "checksums", None)
        replicas = getattr(fs, "replicas", None)
        return {
            "writes": len(self.writes),
            "stream": hashlib.sha256(b"".join(
                b"%d" % block + digest for block, digest in self.writes)).hexdigest(),
            "clock": repr(self.disk.clock),
            "events": self.stack.events.digest(),
            "checksums": None if checksums is None else _checksum_view(fs),
            "replicas": None if replicas is None else dict(replicas.slots),
        }


def _checksum_view(fs):
    """The cached checksum blocks as a digest lookup would see them: with
    the running transaction's superblock and GDT repacked and its pending
    work applied, but without running either (which would change what is
    being compared)."""
    store = fs.checksums
    view = dict(store._cache)
    txn = fs.journal.current
    if txn is None:
        return view
    latest = {block: (txn.meta if txn.derived[block][0] == "meta"
                      else txn.ordered)[block]
              for block in txn.pending if txn.derived[block][0] in fs._checksummed}
    if "meta" in fs._checksummed and fs._sb_gdt_journaled(txn):
        latest[0] = fs.sb.pack(fs.block_size)
        latest[fs.config.gdt_block] = pack_gdt(fs.gdt, fs.block_size)
    for block, data in sorted(latest.items()):
        cks_block, offset = store.location(block)
        payload = bytearray(view[cks_block])
        payload[offset:offset + 20] = hashlib.sha1(data).digest()
        view[cks_block] = bytes(payload)
    return view


op_st = st.one_of(
    st.tuples(st.just("creat"), st.sampled_from(FILES)),
    st.tuples(st.just("write"), st.sampled_from(FILES),
              st.integers(0, 12 * KB), st.integers(1, 24 * KB),
              st.integers(0, 255)),
    st.tuples(st.just("append"), st.sampled_from(FILES), st.integers(1, 3000)),
    st.tuples(st.just("truncate"), st.sampled_from(FILES), st.integers(0, 16 * KB)),
    st.tuples(st.just("unlink"), st.sampled_from(FILES)),
    st.tuples(st.just("mkdir"), st.sampled_from(DIRS)),
    st.tuples(st.just("rmdir"), st.sampled_from(DIRS)),
    st.tuples(st.just("rename"), st.sampled_from(FILES), st.sampled_from(FILES)),
    st.tuples(st.just("fsync"), st.sampled_from(FILES)),
    st.tuples(st.just("sync")),
    st.tuples(st.just("scrub")),
)

fault_st = st.one_of(
    st.none(),
    st.tuples(st.just(FaultOp.WRITE),
              st.sampled_from(["j-data", "j-commit", "inode", "data", "cksum",
                               "replica", "parity"]),
              st.integers(0, 12)),
    st.tuples(st.just(FaultOp.READ),
              st.sampled_from(["inode", "dir", "bitmap", "indirect", "data",
                               "parity", "replica"]),
              st.integers(0, 6)),
)


@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(ops=st.lists(op_st, min_size=4, max_size=24),
       fill=st.sampled_from([0, 0, 12, 40]), fault=fault_st,
       commit_every=st.sampled_from([4, 16]))
# A twice-changed indirect block freed in its transaction (revoke flush).
@example(ops=[("write", "/f0", 0, 14 * KB, 1), ("write", "/f0", 15 * KB, 2 * KB, 2),
              ("truncate", "/f0", 0), ("sync",)],
         fill=0, fault=None, commit_every=16)
# A failed bitmap read aborts the journal with work pending (abort flush).
@example(ops=[("creat", "/f0"), ("creat", "/d/f2"), ("write", "/f0", 0, 2 * KB, 3),
              ("sync",)],
         fill=0, fault=(FaultOp.READ, "bitmap", 0), commit_every=16)
# Pending work, then a write refused with ENOSPC (settled before the snapshot).
@example(ops=[("write", "/f0", 0, 3 * KB, 4), ("write", "/f1", 0, 30 * KB, 5),
              ("sync",)],
         fill=12, fault=None, commit_every=16)
# Scrub meets a latent error on a twice-changed inode block (replica read).
@example(ops=[("creat", "/f0"), ("creat", "/f1"), ("scrub",), ("sync",)],
         fill=0, fault=(FaultOp.READ, "inode", 0), commit_every=16)
# Bitmaps changed back to their on-disk contents, then scrubbed: the
# stored-digest lookup must see the final digest.
@example(ops=[("creat", "/f0"), ("unlink", "/f0"), ("scrub",), ("sync",)],
         fill=0, fault=None, commit_every=16)
# A file's parity block, changed three times, freed with the file.
@example(ops=[("write", "/f0", 0, 3 * KB, 6), ("unlink", "/f0"), ("sync",)],
         fill=0, fault=None, commit_every=16)
@pytest.mark.parametrize("variant", VARIANTS,
                         ids=lambda v: v if isinstance(v, str) else "+".join(v))
def test_once_per_transaction_matches_eager(variant, ops, fill, fault, commit_every):
    eager_cls, cls = (EagerExt3, Ext3) if variant == "ext3" else (EagerIxt3, Ixt3)
    eager = _Run(eager_cls, variant, fill, fault, commit_every)
    lazy = _Run(cls, variant, fill, fault, commit_every)
    assert lazy.state() == eager.state()
    for i, op in enumerate(ops):
        assert lazy.apply(op) == eager.apply(op), (i, op)
        assert lazy.state() == eager.state(), (i, op)
    for run in (eager, lazy):
        if run.fs.mounted and not run.fs.read_only:
            run.fs.unmount()
    assert lazy.state() == eager.state()
