"""The shared decode memo (``repro.common.structs.DecodeMemo``).

Every metadata block decoder keeps one payload-keyed memo of what it
has decoded.  That is sound only under the rules on ``DecodeMemo``: the
key is the payload plus every other decoder input and never the block
number, a failed decode is never stored, and each memo is bounded.  The
stored value is the immutable *record* that readers share (a file
system's ``_node_peek``, a directory lookup, a read-only pointer walk);
``unpack`` and ``_node_get`` callers get a fresh mutable object built
from it.  These tests hold every memoised decoder to each rule, check
that every record refuses assignment, equals a fresh decode field by
field and survives changes to the fresh object, compare memoised
against unmemoised decodes of damaged blocks, and run two drivers end
to end with the memos off and warm.

A mutation that stores a list a caller can reach, hands a reader a
mutable object, keys on the block number, stores a failure, or drops
``nptrs`` / ``fanout`` / ``block_size`` from a key fails here.
"""

from __future__ import annotations

import dataclasses
import gc
from typing import Any, Callable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CorruptionDetected
from repro.common.structs import DecodeMemo
from repro.crash.engine import explore
from repro.fingerprint import Fingerprinter
from repro.fingerprint.adapters import make_ext3_adapter
from repro.fs.ext3 import structures as ext3
from repro.fs.jfs import structures as jfs
from repro.fs.ntfs import structures as ntfs
from repro.fs.reiserfs import btree as reiser_tree
from repro.fs.reiserfs import structures as reiser

from conftest import EXT3_CFG, FS_FACTORIES

BS = 1024


@dataclasses.dataclass(frozen=True)
class Case:
    """One memoised decoder."""

    name: str
    memo: DecodeMemo
    #: ``(payload, block) -> decoded``; blind decoders ignore *block*.
    decode: Callable[[Any, int], Any]
    #: ``i -> `` a well-formed payload, distinct for each *i*.
    valid: Callable[[int], bytes]
    #: A payload that fails D_sanity, for the decoders that check.
    corrupt: Optional[bytes] = None
    #: Whether the decoder takes a ``memoryview`` (the directory parsers
    #: call ``.decode`` on a slice, which a view does not have).
    views: bool = True
    #: The decoder inputs besides the payload, as its memo keys them.
    params: tuple = ()
    #: ``(payload, block) -> `` the shared record, for the decoders
    #: whose readers take it directly.
    record: Optional[Callable[[Any, int], Any]] = None


def _ext3_super(i):
    sb = ext3.Superblock.for_config(EXT3_CFG)
    sb.mount_count = i
    return sb.pack(BS)


def _reiser_leaf(i):
    items = [reiser_tree.Item((1, i + 2, 0, reiser_tree.IT_STAT), b"s" * 40),
             reiser_tree.Item((1, i + 2, 1, reiser_tree.IT_DIRECT), b"body")]
    return reiser_tree.Node(level=1, items=items).pack(BS)


def _reiser_internal(i):
    return reiser_tree.Node(level=2, keys=[(1, i + 2, 0, 0)],
                            children=[70, 71 + i]).pack(BS)


_BAD_COUNT = b"\xff" * 8 + bytes(BS - 8)

CASES = [
    Case("ext3-super", ext3._SB_MEMO,
         lambda d, b: ext3.Superblock.unpack(d), _ext3_super),
    Case("ext3-gdt", ext3._GDT_MEMO, lambda d, b: ext3.unpack_gdt(d, 2),
         lambda i: ext3.pack_gdt(
             [ext3.GroupDescriptor(3, 4, 5, i, 7, 8, 9)] * 2, BS), params=(2,)),
    Case("ext3-inode", ext3._INODE_MEMO,
         lambda d, b: ext3.Inode.unpack(d),
         lambda i: ext3.Inode(mode=0o100644, links=1, size=i,
                              direct=[i + 1] * 12).pack(),
         record=lambda d, b: ext3.inode_record(d)),
    Case("ext3-dir", ext3._DIR_MEMO, lambda d, b: ext3.unpack_dir_block(d),
         lambda i: ext3.pack_dir_block(
             [(2, 2, "."), (2, 2, ".."), (i + 11, 1, f"file{i}")], BS),
         views=False, record=lambda d, b: ext3.dir_block_record(d)),
    Case("ext3-pointers", ext3._POINTER_MEMO,
         lambda d, b: ext3.unpack_pointer_block(d, 8),
         lambda i: ext3.pack_pointer_block([i + 1] * 8, BS, 8), params=(8,),
         record=lambda d, b: ext3.pointer_block_record(d, 8)),
    Case("jfs-super", jfs._SB_MEMO, lambda d, b: jfs.JFSSuper.unpack(d),
         lambda i: jfs.JFSSuper(jfs.JFS_MAGIC, jfs.JFS_VERSION, BS, 800, 700,
                                60, 64, 32, 8, 16, generation=i).pack(BS)),
    Case("jfs-aggregate", jfs._AGGR_MEMO,
         lambda d, b: jfs.AggregateInode.unpack(d),
         lambda i: jfs.AggregateInode(jfs.AGGR_MAGIC, 3, 4, 5, i).pack(BS)),
    Case("jfs-inode", jfs._INODE_MEMO, lambda d, b: jfs.JFSInode.unpack(d),
         lambda i: jfs.JFSInode(mode=0o100644, links=1, size=i,
                                direct=[i + 1] * 8).pack(128),
         record=lambda d, b: jfs.inode_record(d)),
    Case("jfs-dir", jfs._DIR_MEMO, lambda d, b: jfs.unpack_dir_block(d, b, BS),
         lambda i: jfs.pack_dir_block([(i + 3, 1, f"file{i}")], BS),
         corrupt=_BAD_COUNT, views=False, params=(BS,)),
    Case("jfs-tree", jfs._TREE_MEMO, lambda d, b: jfs.unpack_tree_block(d, b, 16),
         lambda i: jfs.pack_tree_block(1, [i + 1, i + 2], BS, 16),
         corrupt=bytes(BS), params=(16,)),
    Case("ntfs-boot", ntfs._BOOT_MEMO, lambda d, b: ntfs.BootFile.unpack(d),
         lambda i: ntfs.BootFile(ntfs.BOOT_MAGIC, BS, 700 + i, 4, 64,
                                 70, 32, 2, 3).pack(BS)),
    Case("ntfs-mft", ntfs._MFT_MEMO, lambda d, b: ntfs.MFTRecord.unpack(d, b),
         lambda i: ntfs.MFTRecord(flags=ntfs.FLAG_IN_USE, links=1, mode=0o644,
                                  size=i, runs=[i + 1] * ntfs.NUM_RUNS).pack(BS),
         corrupt=bytes(BS), record=ntfs.mft_record),
    Case("ntfs-index", ntfs._INDX_MEMO,
         lambda d, b: ntfs.unpack_index_block(d, b, BS),
         lambda i: ntfs.pack_index_block([(i + 16, 1, f"file{i}")], BS),
         corrupt=bytes(BS), views=False, params=(BS,)),
    Case("reiserfs-super", reiser._SB_MEMO,
         lambda d, b: reiser.ReiserSuper.unpack(d),
         lambda i: reiser.ReiserSuper(reiser.REISER_MAGIC, BS, 768, 700, 70, 1,
                                      i + 3, 1, 64, 65, 1, 66).pack(BS)),
    Case("reiserfs-leaf", reiser_tree._NODE_MEMO,
         lambda d, b: reiser_tree.Node.unpack(d, b), _reiser_leaf,
         corrupt=bytes(BS), record=reiser_tree.node_record),
    Case("reiserfs-internal", reiser_tree._NODE_MEMO,
         lambda d, b: reiser_tree.Node.unpack(d, b), _reiser_internal,
         corrupt=_reiser_internal(0)[:2] + b"\x09" + _reiser_internal(0)[3:],
         record=reiser_tree.node_record),
]

by_case = pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)


def all_memos():
    """Every decode memo alive in the process."""
    import repro.cli  # noqa: F401  (imports every file system)
    return [o for o in gc.get_objects() if isinstance(o, DecodeMemo)]


def test_every_memo_in_the_process_is_covered():
    assert {id(m) for m in all_memos()} == {id(c.memo) for c in CASES}


@pytest.fixture(autouse=True)
def empty_memos():
    """Each test starts, and leaves the next, with nothing memoised."""
    for memo in all_memos():
        memo.clear()
    yield
    for memo in all_memos():
        memo.clear()


class memos_off:
    """Inside, every decode is a fresh one: nothing is kept or found.
    (``capacity`` is a constant of each decoder, not a product knob.)"""

    def __enter__(self):
        self.saved = [(m, m.capacity) for m in all_memos()]
        for memo, _ in self.saved:
            memo.capacity = 0
            memo.clear()

    def __exit__(self, *exc):
        for memo, capacity in self.saved:
            memo.capacity = capacity


def _outcome(decode, payload, block=7):
    try:
        return "ok", decode(payload, block)
    except CorruptionDetected as exc:
        return "corrupt", exc.block, str(exc)


def _scramble(value):
    """Change everything a caller could change through *value*."""
    if isinstance(value, list):
        for item in value:
            _scramble(item)
        value.append("junk")
        value.reverse()
    elif isinstance(value, tuple):
        for item in value:
            _scramble(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _scramble(getattr(value, f.name))
            try:
                setattr(value, f.name, "junk")
            except dataclasses.FrozenInstanceError:
                pass


# -- the helper itself ------------------------------------------------------------


class TestDecodeMemo:
    def test_evicts_the_oldest_entry_one_at_a_time(self):
        memo = DecodeMemo(3)
        for i in range(5):
            memo.put(i, bytes([i]))
            assert len(memo) == min(i + 1, 3)
        assert [memo.get(bytes([i])) for i in range(5)] == [None, None, 2, 3, 4]

    def test_the_other_decoder_inputs_are_part_of_the_key(self):
        memo = DecodeMemo(8)
        assert memo.put("eight", b"p", 8) == "eight"
        assert memo.get(b"p", 8) == "eight"
        assert memo.get(b"p", 16) is None and memo.get(b"p") is None

    def test_only_an_exact_bytes_payload_is_stored_or_found(self):
        memo = DecodeMemo(8)
        memo.put("kept", b"p")
        for foreign in (memoryview(b"p"), bytearray(b"p")):
            assert memo.get(foreign) is None
            assert memo.put("other", foreign) == "other"
        assert len(memo) == 1 and memo.get(b"p") == "kept"


def _assert_frozen(value):
    """Every level of *value* refuses assignment."""
    if isinstance(value, (int, float, str, bytes)):
        return
    if dataclasses.is_dataclass(value):
        first = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, first, getattr(value, first))
        for f in dataclasses.fields(value):
            _assert_frozen(getattr(value, f.name))
        return
    assert isinstance(value, tuple), f"{type(value).__name__} in a record"
    if hasattr(value, "_fields"):
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], value[0])
    if value:
        with pytest.raises(TypeError):
            value[0] = value[0]
    for item in value:
        _assert_frozen(item)


def _field_values(value):
    """*value* field by field, every sequence a tuple: a record and a
    fresh decode of one payload compare equal under it."""
    if dataclasses.is_dataclass(value):
        return tuple(_field_values(getattr(value, f.name))
                     for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(_field_values(item) for item in value)
    return value


def _same_fields(record, fresh) -> bool:
    """Whether *record* holds what the fresh decode *fresh* does.  A
    mount-time record stored as a plain tuple holds the fields on disk,
    in declaration order; a later field is not stored and decodes to its
    default."""
    got, want = _field_values(record), _field_values(fresh)
    if dataclasses.is_dataclass(fresh) and not hasattr(record, "_fields"):
        rest = [f.default for f in dataclasses.fields(fresh)[len(got):]]
        return got == want[:len(got)] and list(want[len(got):]) == rest
    return got == want


# -- the record readers share ----------------------------------------------------------


@by_case
def test_a_record_refuses_assignment_and_readers_share_it(case):
    payload = case.valid(5)
    case.decode(payload, 7)
    record = case.memo.get(payload, *case.params)
    assert record is not None
    _assert_frozen(record)
    if case.record is not None:
        assert case.record(payload, 9) is record


@by_case
def test_a_record_equals_a_fresh_decode_field_by_field(case):
    payload = case.valid(5)
    with memos_off():
        fresh = case.decode(payload, 7)
    case.decode(payload, 7)
    assert _same_fields(case.memo.get(payload, *case.params), fresh)
    if case.record is not None:
        with memos_off():
            assert _same_fields(case.record(payload, 7), fresh)


@by_case
def test_changing_a_fresh_object_leaves_the_record_alone(case):
    payload = case.valid(5)
    first = case.decode(payload, 7)
    record = case.memo.get(payload, *case.params)
    want = _field_values(record)
    _scramble(first)
    _scramble(case.decode(payload, 9))
    assert case.memo.get(payload, *case.params) is record
    assert _field_values(record) == want
    assert _same_fields(record, case.decode(payload, 7))


# -- every decoder, rule by rule ----------------------------------------------------


@by_case
def test_a_hit_equals_a_fresh_decode_and_shares_nothing_mutable(case):
    payload = case.valid(5)
    with memos_off():
        fresh = case.decode(payload, 7)
        assert len(case.memo) == 0
    first = case.decode(payload, 7)         # a miss, which stores
    assert len(case.memo) == 1
    assert first == fresh
    _scramble(first)
    second = case.decode(payload, 9)        # a hit, at another block
    assert len(case.memo) == 1
    assert second == fresh
    _scramble(second)
    assert case.decode(payload, 7) == fresh


@pytest.mark.parametrize("case", [c for c in CASES if c.corrupt],
                         ids=lambda c: c.name)
def test_a_failed_decode_is_never_stored_and_names_the_callers_block(case):
    for block in (7, 9, 7):
        with pytest.raises(CorruptionDetected) as caught:
            case.decode(case.corrupt, block)
        assert caught.value.block == block
        assert len(case.memo) == 0


@by_case
def test_a_payload_that_is_not_bytes_bypasses(case):
    payload = case.valid(5)
    with memos_off():
        fresh = case.decode(payload, 7)
    foreign = [bytearray(payload)] + ([memoryview(payload)] if case.views else [])
    for data in foreign:
        assert case.decode(data, 7) == fresh
        assert len(case.memo) == 0
    # ... and finds nothing either, when the bytes are already there.
    stored = case.decode(payload, 7)
    _scramble(stored)
    for data in foreign:
        assert case.decode(data, 7) == fresh
    assert len(case.memo) == 1


@by_case
def test_the_capacity_bound_holds(case):
    capacity = case.memo.capacity
    assert 0 < capacity <= 512
    for i in range(10 * capacity):
        case.decode(case.valid(i), 7)
        assert len(case.memo) <= capacity
    assert len(case.memo) == capacity
    # Oldest out: the latest payloads are the ones still held.
    case.decode(case.valid(10 * capacity - 1), 7)
    assert len(case.memo) == capacity


_THREE_NAMES = [(20, 1, "a"), (21, 1, "b"), (22, 1, "c")]


@pytest.mark.parametrize("decode, payload, one, other", [
    (lambda d, n: ext3.unpack_pointer_block(d, n),
     ext3.pack_pointer_block(list(range(1, 9)), BS, 8), 8, 4),
    (lambda d, n: ext3.unpack_gdt(d, n),
     ext3.pack_gdt([ext3.GroupDescriptor(3, 4, 5, 6, 7, 8, 9)] * 2, BS), 2, 1),
    (lambda d, n: jfs.unpack_tree_block(d, 7, n),
     jfs.pack_tree_block(1, [5, 6, 7], BS, 16), 16, 2),
    (lambda d, n: jfs.unpack_dir_block(d, 7, n),
     jfs.pack_dir_block(_THREE_NAMES, BS), BS, 20),
    (lambda d, n: ntfs.unpack_index_block(d, 7, n),
     ntfs.pack_index_block(_THREE_NAMES, BS), BS, 24),
], ids=["ext3-pointers", "ext3-gdt", "jfs-tree", "jfs-dir", "ntfs-index"])
def test_every_other_decoder_input_is_part_of_the_key(decode, payload, one, other):
    """One payload under two values of ``nptrs`` / ``num_groups`` /
    ``fanout`` / ``block_size``: each answer is its own."""
    with memos_off():
        want_one, want_other = _outcome(decode, payload, one), _outcome(decode, payload, other)
    assert want_one != want_other
    for n, want in ((one, want_one), (other, want_other), (one, want_one)):
        assert _outcome(decode, payload, n) == want


# -- damaged blocks: memoised against unmemoised ---------------------------------------

_POPULATED = {}


def _populated_blocks(name):
    """The distinct non-zero blocks of a populated volume of *name*."""
    if name not in _POPULATED:
        disk, fs = FS_FACTORIES[name]()
        fs.mount()
        fs.mkdir("/d")
        for i, size in enumerate((0, 100, 700, 3000, 20 * 1024)):
            fs.write_file(f"/d/f{i}", bytes((i + j) % 251 for j in range(size)))
        for i in range(8):
            fs.write_file(f"/g{i}", b"g" * i)
        fs.symlink("/d/f1", "/link")
        fs.unmount()
        blocks = {bytes(disk.peek(b)) for b in range(disk.num_blocks)}
        blocks.discard(bytes(BS))
        _POPULATED[name] = sorted(blocks)
    return _POPULATED[name]


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(CASES), pick=st.integers(0, 10_000),
       flips=st.lists(st.tuples(st.integers(0, BS - 1), st.integers(0, 255)),
                      max_size=6))
def test_memoised_decodes_of_damaged_blocks_match_unmemoised(case, pick, flips):
    """Any decoder over any block of its file system's populated image,
    a few bytes flipped: decoded with no memo, then cold, then warm."""
    blocks = _populated_blocks(case.name.split("-")[0])
    raw = bytearray(blocks[pick % len(blocks)])
    for pos, byte in flips:
        raw[pos] = byte
    payload = bytes(raw)
    with memos_off():
        want = repr(_outcome(case.decode, payload))
    first = _outcome(case.decode, payload)
    assert repr(first) == want      # repr: garbage times decode to NaN
    if first[0] == "ok":
        _scramble(first[1])
    # An equal payload in another object: found by value, not identity.
    assert repr(_outcome(case.decode, bytes(raw))) == want


# -- end to end: memos off against memos warm --------------------------------------------


def _explore_digest():
    report = explore("reiserfs", "rename")
    return report.states_explored, report.violation_digest()


def _panel_digests():
    fingerprinter = Fingerprinter(make_ext3_adapter())
    matrix = fingerprinter.run()
    cells = sorted((cell, obs.detection_symbols(), obs.recovery_symbols())
                   for cell, obs in matrix.cells.items())
    return cells, sorted(fingerprinter.workload_digest.items())


@pytest.mark.parametrize("drive", [_explore_digest, _panel_digests],
                         ids=["crash-reiserfs-rename", "figure2-ext3"])
def test_drivers_agree_with_the_memos_off_and_warm(drive):
    with memos_off():
        off = drive()
    cold = drive()      # fills the memos
    assert any(len(memo) for memo in all_memos())
    warm = drive()      # runs on what the last call left
    assert off == cold == warm
