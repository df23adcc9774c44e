"""ext3 internals: on-disk structure round-trips, layout math, block
mapping through all indirection levels, and the journal."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import Errno, FSError
from repro.disk import make_disk
from repro.fs.ext3 import Ext3, Ext3Config, mkfs_ext3
from repro.fs.ext3.config import INODE_SIZE, NUM_DIRECT, ROOT_INO
from repro.fs.ext3.journal import (
    desc_capacity,
    pack_commit,
    pack_desc,
    pack_journal_super,
    pack_revoke,
    parse_commit,
    parse_desc,
    parse_journal_super,
    parse_revoke,
)
from repro.fs.ext3.structures import (
    DirEntry,
    GroupDescriptor,
    Inode,
    Superblock,
    pack_dir_block,
    pack_gdt,
    pack_pointer_block,
    unpack_dir_block,
    unpack_gdt,
    unpack_pointer_block,
)
from repro.vfs import O_RDONLY, O_RDWR

from conftest import EXT3_CFG, make_ext3


class TestConfigLayout:
    def test_regions_do_not_overlap(self):
        cfg = Ext3Config(ptrs_per_block=8, checksum_blocks=10, replica_blocks=20)
        assert cfg.gdt_block < cfg.journal_start
        assert cfg.journal_start + cfg.journal_blocks == cfg.checksum_start
        assert cfg.checksum_start + cfg.checksum_blocks == cfg.replica_start
        assert cfg.replica_start + cfg.replica_blocks == cfg.groups_start

    def test_group_geometry(self):
        cfg = Ext3Config()
        for g in range(cfg.num_groups):
            base = cfg.group_base(g)
            assert cfg.block_bitmap_block(g) == base + 1
            assert cfg.inode_bitmap_block(g) == base + 2
            assert cfg.data_start(g) == base + cfg.group_overhead_blocks
            assert cfg.group_of_block(cfg.data_start(g)) == g
        assert cfg.group_of_block(0) is None
        assert cfg.group_of_block(cfg.total_blocks + 5) is None

    def test_inode_location_roundtrip(self):
        cfg = Ext3Config()
        seen = set()
        for ino in range(1, cfg.total_inodes + 1):
            block, off = cfg.inode_location(ino)
            assert off % INODE_SIZE == 0
            assert (block, off) not in seen
            seen.add((block, off))
        with pytest.raises(ValueError):
            cfg.inode_location(0)
        with pytest.raises(ValueError):
            cfg.inode_location(cfg.total_inodes + 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Ext3Config(block_size=100)
        with pytest.raises(ValueError):
            Ext3Config(journal_blocks=2)
        with pytest.raises(ValueError):
            Ext3Config(inodes_per_group=7)  # does not fill whole blocks

    def test_max_file_blocks(self):
        cfg = Ext3Config(ptrs_per_block=4)
        assert cfg.max_file_blocks == 12 + 4 + 16 + 64


class TestStructureRoundtrips:
    def test_superblock(self):
        cfg = Ext3Config()
        sb = Superblock.for_config(cfg, features=0b10101)
        again = Superblock.unpack(sb.pack(1024))
        assert again == sb
        assert again.is_valid(1024)

    def test_superblock_sanity(self):
        sb = Superblock.unpack(b"\x00" * 1024)
        assert not sb.is_valid(1024)

    def test_group_descriptor(self):
        gd = GroupDescriptor(10, 11, 12, 100, 50, 20, 200)
        table = pack_gdt([gd, gd], 1024)
        assert unpack_gdt(table, 2) == [gd, gd]

    @given(st.builds(
        Inode,
        mode=st.integers(0, 0xFFFF),
        links=st.integers(0, 0xFFFF),
        size=st.integers(0, 2**40),
        nblocks=st.integers(0, 2**20),
        direct=st.lists(st.integers(0, 2**31), min_size=NUM_DIRECT,
                        max_size=NUM_DIRECT),
        indirect=st.integers(0, 2**31),
        parity_block=st.integers(0, 2**31),
    ))
    def test_property_inode_roundtrip(self, inode):
        assert Inode.unpack(inode.pack()) == inode

    @given(st.lists(
        st.tuples(st.integers(1, 1000),
                  st.sampled_from([1, 2, 7]),
                  st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                          min_size=1, max_size=24)),
        max_size=12, unique_by=lambda t: t[2],
    ))
    def test_property_dir_block_roundtrip(self, raw_entries):
        entries = [DirEntry(ino, ft, name) for ino, ft, name in raw_entries]
        block = pack_dir_block(entries, 1024)
        assert unpack_dir_block(block) == entries

    def test_dir_block_tolerates_garbage(self):
        # No exception, whatever comes back (blind parsing, §5.1).
        unpack_dir_block(bytes(range(256)) * 4)
        unpack_dir_block(b"\xff" * 1024)

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=8, max_size=8))
    def test_property_pointer_block_roundtrip(self, ptrs):
        assert unpack_pointer_block(pack_pointer_block(ptrs, 1024, 8), 8) == ptrs


class TestJournalBlockFormats:
    def test_super_roundtrip(self):
        raw = pack_journal_super(1024, next_seq=42, clean=True)
        assert parse_journal_super(raw) == (42, True)
        assert parse_journal_super(b"\x00" * 1024) is None

    def test_desc_roundtrip(self):
        raw = pack_desc(1024, 7, [1, 2, 300])
        assert parse_desc(raw) == (7, [1, 2, 300])
        assert parse_desc(pack_commit(1024, 7, 3)) is None

    def test_commit_roundtrip(self):
        csum = b"\x42" * 20
        raw = pack_commit(1024, 9, 5, csum)
        seq, nblocks, got = parse_commit(raw)
        assert (seq, nblocks, got) == (9, 5, csum)

    def test_revoke_roundtrip(self):
        raw = pack_revoke(1024, 3, [10, 20])
        assert parse_revoke(raw) == (3, [10, 20])

    def test_desc_capacity_bounds(self):
        cap = desc_capacity(1024)
        raw = pack_desc(1024, 1, list(range(cap)))
        assert parse_desc(raw) == (1, list(range(cap)))

    def test_corrupt_count_rejected(self):
        raw = bytearray(pack_desc(1024, 1, [5]))
        import struct
        struct.pack_into("<I", raw, 12, 0xFFFFFF)  # absurd count
        assert parse_desc(bytes(raw)) is None


@pytest.fixture
def small_fs():
    cfg = Ext3Config(ptrs_per_block=4)  # triple indirect within 97 blocks
    disk = make_disk(cfg.total_blocks, cfg.block_size)
    mkfs_ext3(disk, cfg)
    fs = Ext3(disk)
    fs.mount()
    return cfg, disk, fs


class TestBlockMapping:
    def test_file_spanning_all_levels(self, small_fs):
        cfg, disk, fs = small_fs
        bs = cfg.block_size
        # 12 direct + 4 indirect + 16 double + some triple
        nblocks = 12 + 4 + 16 + 9
        payload = bytes((i * 31) % 256 for i in range(nblocks * bs))
        fs.write_file("/deep", payload)
        assert fs.read_file("/deep") == payload
        # The inode actually uses the triple-indirect pointer.
        ino = fs.stat("/deep").ino
        inode = fs._node_get(ino)
        assert inode.tindirect != 0
        assert inode.dindirect != 0
        assert inode.indirect != 0

    def test_file_too_large_rejected(self, small_fs):
        cfg, disk, fs = small_fs
        fd = fs.creat("/f")
        with pytest.raises(FSError) as e:
            fs.write(fd, b"x", offset=cfg.max_file_blocks * cfg.block_size + 1)
        assert e.value.errno is Errno.EFBIG

    def test_sparse_read_returns_zeros(self, small_fs):
        cfg, disk, fs = small_fs
        bs = cfg.block_size
        fd = fs.creat("/sparse")
        fs.write(fd, b"END", offset=20 * bs)
        fs.close(fd)
        data = fs.read_file("/sparse")
        assert data[:bs] == b"\x00" * bs  # hole
        assert data.endswith(b"END")

    def test_partial_shrink_keeps_prefix(self, small_fs):
        cfg, disk, fs = small_fs
        bs = cfg.block_size
        nblocks = 12 + 4 + 10  # through double indirect
        payload = bytes((i * 3) % 256 for i in range(nblocks * bs))
        fs.write_file("/f", payload)
        keep = 14 * bs + 100
        fs.truncate("/f", keep)
        assert fs.read_file("/f") == payload[:keep]

    def test_shrink_then_regrow(self, small_fs):
        cfg, disk, fs = small_fs
        bs = cfg.block_size
        fs.write_file("/f", b"A" * (20 * bs))
        free_mid = fs.statfs().free_blocks
        fs.truncate("/f", 2 * bs)
        assert fs.statfs().free_blocks > free_mid
        fd = fs.open("/f", O_RDWR)
        fs.write(fd, b"B" * (10 * bs), offset=2 * bs)
        fs.close(fd)
        data = fs.read_file("/f")
        assert data[:2 * bs] == b"A" * (2 * bs)
        assert data[2 * bs:] == b"B" * (10 * bs)


class TestExt3Journal:
    def test_commit_then_checkpoint_persists(self, small_fs):
        cfg, disk, fs = small_fs
        fs.sync_mode = False
        fs.mkdir("/d")
        # Not yet durable: on-disk root dir has no entry...
        fs.journal.commit()
        fs.journal.checkpoint()
        fs.crash()
        fs2 = Ext3(disk)
        fs2.mount()
        assert "d" in fs2.getdirentries("/")

    def test_uncommitted_txn_lost(self, small_fs):
        cfg, disk, fs = small_fs
        fs.sync_mode = False
        fs.mkdir("/ghost")
        fs.crash()  # nothing committed
        fs2 = Ext3(disk)
        fs2.mount()
        assert not fs2.exists("/ghost")

    def test_journal_wraps_under_pressure(self, small_fs):
        cfg, disk, fs = small_fs
        # Many ops in sync mode: far more journal traffic than the
        # 64-block journal holds; checkpointing must recycle it.
        for i in range(40):
            fs.write_file(f"/f{i}", bytes([i]) * 600)
        for i in range(40):
            assert fs.read_file(f"/f{i}") == bytes([i]) * 600
        assert fs.journal.checkpoints >= 1

    def test_replay_is_idempotent(self, small_fs):
        cfg, disk, fs = small_fs
        fs.crash_after(lambda f: f.write_file("/x", b"once"))
        fs2 = Ext3(disk)
        fs2.mount()
        assert fs2.read_file("/x") == b"once"
        fs2.crash()  # crash again without new commits
        fs3 = Ext3(disk)
        fs3.mount()
        assert fs3.read_file("/x") == b"once"

    def test_revoked_blocks_not_replayed(self, small_fs):
        cfg, disk, fs = small_fs

        def ops(f):
            f.mkdir("/dir")          # allocates a dir block, journals it
            f.write_file("/dir/a", b"a")
            f.unlink("/dir/a")
            f.rmdir("/dir")          # frees + revokes the dir block
            f.write_file("/reuse", b"R" * 2048)  # likely reuses the block

        fs.crash_after(ops)
        fs2 = Ext3(disk)
        fs2.mount()
        assert not fs2.exists("/dir")
        assert fs2.read_file("/reuse") == b"R" * 2048


class TestBitmapBlocks:
    @pytest.mark.parametrize("kind", ["block", "inode"])
    def test_a_change_rewrites_the_map_and_zeroes_the_tail(self, kind):
        """Allocation rewrites a bitmap block as the map's own bytes
        (the padding bits of its last byte kept as read) zero-padded to
        the block: garbage past the map's bytes does not survive."""
        disk, fs = make_ext3()
        cfg = EXT3_CFG
        if kind == "block":
            block, nbits = cfg.block_bitmap_block(0), cfg.data_blocks_per_group
        else:
            block, nbits = cfg.inode_bitmap_block(0), cfg.inodes_per_group
        nbytes = (nbits + 7) // 8
        before = bytearray(disk.peek(block))
        pad = 0xFF << (nbits % 8) & 0xFF if nbits % 8 else 0
        before[nbytes - 1] |= pad
        before[nbytes:] = b"\xa5" * (len(before) - nbytes)
        disk.poke(block, bytes(before))
        fs.mount()
        fs.write_file("/f", b"x")
        fs.unmount()
        used = int.from_bytes(before[:nbytes], "little")
        taken = (~used & ((1 << nbits) - 1)) & -(~used & ((1 << nbits) - 1))
        assert disk.peek(block) == (
            (used | taken).to_bytes(nbytes, "little").ljust(len(before), b"\x00"))
        fs.mount()
        fs.unlink("/f")
        fs.unmount()
        assert disk.peek(block) == (
            used.to_bytes(nbytes, "little").ljust(len(before), b"\x00"))
