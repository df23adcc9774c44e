"""Pin for the directory half of the primitive protocol.

The third companion of ``test_generic_namespace.py`` and
``test_generic_datapath.py``: one scripted workload drives the seven
directory operations — ``_dir_entries``, ``_dir_find``, ``_dir_add``,
``_dir_remove``, ``_dir_set_dotdot``, ``_dir_create`` and ``_stat_of``
— over all five ``ADAPTERS`` file systems, through the corners a
block-list directory has and the other two pins do not reach:

* a directory grown past one, two and three blocks, with lookups that
  end in each of them and one that misses in all;
* removal from the first and from later blocks, then re-insertion into
  exactly the room that was freed (directory *order* is pinned, so
  ``getdirentries`` results are compared unsorted);
* directories — one of them several blocks long — renamed across
  parents, which rewrites ``..``;
* NTFS running out of run-table slots (``ENOSPC`` "directory full" at
  ``NUM_RUNS`` blocks) while an entry that needs no new block still
  goes in;
* ``ENOTDIR`` through every directory operation, by syscall where one
  reaches it and by calling the primitive where the syscall layer
  checks first;
* ``stat`` of a file, a directory and a symlink with every field of
  the result compared.

A second stage then damages one directory block out-of-band
(``SimulatedDisk.poke``), twice: first with a well-formed entry whose
child number is out of range (skipped by ``_dir_find`` on every file
system), then with each adapter's own field corruption — ext3 parses
the block blindly into garbage names, JFS fails its count check and
remounts read-only, NTFS fails its magic check and marks the volume
unmountable, ixt3's checksum catches it and the replica repairs it.
ReiserFS keeps directories as tree items and is left undamaged.

Per file system the test pins the ``(result | errno)`` sequence,
``EventLog.digest()`` of the device stack's stream (every block I/O in
order, with its virtual time), the crash engine's ``state_digest``
before the damage, and a SHA-256 of the final unmounted image.  The
literals were captured while ext3, JFS and NTFS each still carried
their own copy of the seven operations, so a directory layer written
once must reproduce the old device I/O byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.common.errors import FSError
from repro.crash.engine import state_digest
from repro.fingerprint.adapters import ADAPTERS
from repro.fs.ext3 import structures as ext3_structures
from repro.fs.jfs import structures as jfs_structures
from repro.fs.ntfs import structures as ntfs_structures
from repro.vfs.stat import FT_REG, StatResult

FS_NAMES = ["ext3", "reiserfs", "jfs", "ntfs", "ixt3"]

BS = 1024  # every ADAPTERS geometry uses 1 KB blocks

#: 209-byte entries: four to a block on every block-list format (the
#: first block also holds ``.`` and ``..``).
G = [f"{'g' * 200}-{i:02d}" for i in range(16)]
SUB, CRE, SYM, REN = "s" * 203, "c" * 203, "l" * 203, "r" * 203
#: 260-byte entries: three to a block, so 144 of them fill the 48
#: blocks an NTFS run table can name.
W = [f"{'w' * 250}-{i:03d}" for i in range(147)]

ONLY_NTFS_FULL = {"*": "ok", "ntfs": "ENOSPC"}


def _links(directory, names):
    return [("link", ("/seed", f"{directory}/{n}"), "ok") for n in names]


#: (op, args, expected) — expected is an errno name, or ``"ok"`` for
#: "returns normally" (the exact value is pinned by the outcome digest);
#: a dict gives per-file-system expectations with ``"*"`` as the default.
#: ``dirop`` calls one directory primitive on the object at a path.
SCRIPT = [
    ("write_file", ("/seed", b"seed"), "ok"),
    ("mkdir", ("/g",), "ok"),
    ("lstat", ("/g",), "ok"),
    # -- growth: blocks [. .. G0-3] [G4-7] [G8-10 SUB] [CRE SYM] ----------
    *_links("/g", G[:4]),
    ("lstat", ("/g",), "ok"),                        # still one block
    *_links("/g", G[4:5]),
    ("lstat", ("/g",), "ok"),                        # two
    *_links("/g", G[5:9]),
    ("lstat", ("/g",), "ok"),                        # three
    *_links("/g", G[9:11]),
    ("mkdir", (f"/g/{SUB}",), "ok"),
    ("write_file", (f"/g/{CRE}", b"created"), "ok"),
    ("symlink", ("/seed", f"/g/{SYM}"), "ok"),
    ("lstat", ("/g",), "ok"),                        # four
    ("getdirentries", ("/g",), "ok"),
    # -- lookups ending in each block, and one that scans them all --------
    ("stat", (f"/g/{G[0]}",), "ok"),
    ("stat", (f"/g/{G[5]}",), "ok"),
    ("stat", (f"/g/{G[9]}",), "ok"),
    ("stat", (f"/g/{CRE}",), "ok"),
    ("stat", (f"/g/{SUB}",), "ok"),
    ("lstat", (f"/g/{SYM}",), "ok"),
    ("stat", (f"/g/{SYM}",), "ok"),                  # follows to /seed
    ("stat", (f"/g/{SUB}/..",), "ok"),
    ("stat", ("/g/missing",), "ENOENT"),
    ("stat", (f"/g/{G[11]}",), "ENOENT"),
    # -- removal from the first and from later blocks ---------------------
    ("unlink", (f"/g/{G[1]}",), "ok"),               # first block
    ("unlink", (f"/g/{G[9]}",), "ok"),               # third
    ("unlink", (f"/g/{G[5]}",), "ok"),               # second
    ("unlink", (f"/g/{G[5]}",), "ENOENT"),
    ("getdirentries", ("/g",), "ok"),
    # -- re-insertion into the freed room ---------------------------------
    *_links("/g", G[12:14]),                         # first block, then second
    ("link", ("/seed", "/g/short"), "ok"),           # what is left of the first
    *_links("/g", G[14:16]),                         # third block, then fourth
    ("link", ("/seed", f"/g/{G[14]}"), "EEXIST"),
    ("getdirentries", ("/g",), "ok"),
    ("lstat", ("/g",), "ok"),                        # no new block
    ("rmdir", (f"/g/{SUB}",), "ok"),                 # entry in a later block
    ("rename", (f"/g/{G[0]}", f"/g/{REN}"), "ok"),   # out of and into block one
    ("rename", (f"/g/{G[15]}", f"/g/{G[0]}"), "ok"),
    ("getdirentries", ("/g",), "ok"),
    ("stat", ("/seed",), "ok"),
    # -- directories renamed across parents -------------------------------
    ("mkdir", ("/p1",), "ok"),
    ("mkdir", ("/p1/k",), "ok"),
    ("write_file", ("/p1/k/leaf", b"leaf"), "ok"),
    ("mkdir", ("/p2",), "ok"),
    ("rename", ("/p1/k", "/p2/k2"), "ok"),
    ("stat", ("/p1",), "ok"),
    ("stat", ("/p2",), "ok"),
    ("getdirentries", ("/p2/k2",), "ok"),
    ("stat", ("/p2/k2/../k2/leaf",), "ok"),
    ("rename", ("/g", "/p2/g2"), "ok"),              # a four-block directory
    ("stat", ("/p2/g2/..",), "ok"),
    ("stat", (f"/p2/g2/../g2/{G[14]}",), "ok"),
    ("getdirentries", ("/p2/g2",), "ok"),
    ("rename", ("/p2/g2", "/p1/k"), "ok"),           # and on to a third parent
    ("rename", ("/p1/k", "/g"), "ok"),               # back under the root
    ("stat", ("/g/..",), "ok"),
    ("stat", ("/",), "ok"),
    ("stat", ("/p1",), "ok"),
    ("stat", ("/p2",), "ok"),
    # -- ENOTDIR through every directory operation ------------------------
    ("symlink", ("x", "/seed/child"), "ENOTDIR"),
    ("link", ("/seed", "/seed/child"), "ENOTDIR"),
    ("unlink", ("/seed/child",), "ENOTDIR"),
    ("rmdir", ("/seed/child",), "ENOTDIR"),
    ("rename", ("/seed/child", "/y"), "ENOTDIR"),
    ("rename", ("/p1", "/seed/child"), "ENOTDIR"),
    ("dirop", ("_dir_entries", "/seed"), "ENOTDIR"),
    ("dirop", ("_dir_find", "/seed", "x"), "ENOTDIR"),
    ("dirop", ("_dir_add", "/seed", "x"), "ENOTDIR"),
    ("dirop", ("_dir_remove", "/seed", "x"), "ENOTDIR"),
    ("dirop", ("_dir_set_dotdot", "/seed"), "ENOTDIR"),
    ("dirop", ("_dir_find", f"/g/{SYM}", "x"), "ENOTDIR"),
    ("dirop", ("_dir_add", f"/g/{SYM}", "x"), "ENOTDIR"),
    ("dirop", ("_dir_find", "/g", "short"), "ok"),   # the helper itself works
    ("dirop", ("_dir_entries", "/p2"), "ok"),
    ("stat", ("/seed",), "ok"),                      # none of them left a trace
    # -- stat of a file, a directory and a symlink ------------------------
    ("chown", ("/seed", 7, 8), "ok"),
    ("utimes", ("/seed", 3.0, 4.0), "ok"),
    ("chmod", ("/p1", 0o700), "ok"),
    ("stat", ("/seed",), "ok"),
    ("stat", ("/p1",), "ok"),
    ("lstat", (f"/g/{SYM}",), "ok"),
    ("lstat", ("/",), "ok"),
    # -- NTFS "directory full": no 49th block, but room is still room -----
    ("mkdir", ("/full",), "ok"),
    *_links("/full", W[:144]),
    ("lstat", ("/full",), "ok"),
    ("link", ("/seed", f"/full/{W[144]}"), ONLY_NTFS_FULL),
    ("link", ("/seed", "/full/short"), "ok"),        # fits the first block
    ("unlink", (f"/full/{W[70]}",), "ok"),
    ("link", ("/seed", f"/full/{W[145]}"), "ok"),    # the room W[70] left
    ("link", ("/seed", f"/full/{W[146]}"), ONLY_NTFS_FULL),
    ("stat", (f"/full/{W[143]}",), "ok"),            # found in the last block
    ("stat", (f"/full/{W[70]}",), "ENOENT"),
    ("getdirentries", ("/full",), "ok"),
    ("lstat", ("/full",), "ok"),
    ("stat", ("/seed",), "ok"),
    ("statfs", (), "ok"),
    ("sync", (), "ok"),
]

#: Run after the state digest is taken: ``damage`` pokes the one block
#: of ``/v`` (nothing on ReiserFS).  Expectations are per file system.
DAMAGE_SCRIPT = [
    ("mkdir", ("/v",), "ok"),
    ("link", ("/seed", "/v/marker-one"), "ok"),
    ("link", ("/seed", "/v/marker-two"), "ok"),
    ("damage", ("/v", "far-child"), "ok"),
    ("getdirentries", ("/v",), "ok"),                # lists "far" where it landed
    ("stat", ("/v/far",), "ENOENT"),                 # out of range: not followed
    ("stat", ("/v/marker-two",), "ok"),
    ("damage", ("/v", "field"), "ok"),
    ("getdirentries", ("/v",), {"*": "ok", "jfs": "EUCLEAN", "ntfs": "EUCLEAN"}),
    ("stat", ("/v/marker-one",),
     {"*": "ok", "ext3": "ENOENT", "jfs": "EUCLEAN", "ntfs": "EUCLEAN"}),
    ("stat", ("/v/zzzz",),
     {"*": "ENOENT", "jfs": "EUCLEAN", "ntfs": "EUCLEAN"}),
    ("link", ("/seed", "/v/new"), {"*": "ok", "jfs": "EROFS", "ntfs": "EROFS"}),
    ("unlink", ("/v/marker-two",),
     {"*": "ok", "ext3": "ENOENT", "jfs": "EROFS", "ntfs": "EROFS"}),
    ("getdirentries", ("/v",), {"*": "ok", "jfs": "EUCLEAN", "ntfs": "EUCLEAN"}),
    ("mkdir", ("/after",), {"*": "ok", "jfs": "EROFS", "ntfs": "EROFS"}),
    ("stat", ("/seed",), "ok"),
    ("statfs", (), "ok"),
]

#: Per format: the block type the oracle gives a directory block, and
#: how to parse and rebuild one.
BLOCK_FORMATS = {
    "ext3": ("dir", lambda raw, b: ext3_structures.unpack_dir_block(raw),
             lambda entries: ext3_structures.pack_dir_block(
                 [ext3_structures.DirEntry(*e) for e in entries], BS)),
    "jfs": ("dir", lambda raw, b: jfs_structures.unpack_dir_block(raw, b, BS),
            lambda entries: jfs_structures.pack_dir_block(entries, BS)),
    "ntfs": ("directory",
             lambda raw, b: ntfs_structures.unpack_index_block(raw, b, BS),
             lambda entries: ntfs_structures.pack_index_block(entries, BS)),
}
BLOCK_FORMATS["ixt3"] = BLOCK_FORMATS["ext3"]


def damage(name, stack, fs, adapter, path, how):
    """Overwrite the directory block of *path* behind the file
    system's back; returns the block numbers touched."""
    if name not in BLOCK_FORMATS:
        return []
    block_type, unpack, pack = BLOCK_FORMATS[name]
    hit = []
    for block in range(stack.disk.num_blocks):
        raw = stack.disk.peek(block)
        if fs.block_type(block) != block_type or b"marker-one" not in raw:
            continue
        if how == "far-child":
            # ext3's DirEntry was a dataclass at the commit the pins
            # were captured on; this file runs unchanged on both.
            entries = [dataclasses.astuple(e) if dataclasses.is_dataclass(e)
                       else tuple(e) for e in unpack(raw, block)]
            payload = pack(entries + [(0x7FFFFFF0, FT_REG, "far")])
        else:
            payload = adapter.field_corruptor(raw, block_type)
        stack.disk.poke(block, payload)
        hit.append(block)
    return hit


def dirop(fs, prim, path, *args):
    """Call one directory primitive on the object at *path*, framed
    like the syscall that would reach it."""
    def body():
        handle = fs._lookup(path, follow=False)
        if prim == "_dir_entries":
            return fs._dir_entries(handle, fs._node_get(handle))
        if prim == "_dir_add":
            return fs._dir_add(handle, *args, handle, FT_REG)
        if prim == "_dir_set_dotdot":
            return fs._dir_set_dotdot(handle, fs.ROOT)
        return getattr(fs, prim)(handle, *args)
    return fs._run_modifying(body)


def _normalise(value):
    if isinstance(value, StatResult):
        return dataclasses.astuple(value)
    if isinstance(value, list):
        return [_normalise(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_normalise(v) for v in value)
    return value


def run_script(script, name, stack, fs, adapter):
    """Apply *script* to a mounted *fs*; return the outcome per step."""
    outcomes = []
    for op, args, _ in script:
        try:
            if op == "dirop":
                result = dirop(fs, *args)
            elif op == "damage":
                result = damage(name, stack, fs, adapter, *args)
            else:
                result = getattr(fs, op)(*args)
        except FSError as exc:
            outcomes.append(exc.errno.name)
            continue
        outcomes.append(_normalise(result))
    return outcomes


def mounted(name):
    adapter = ADAPTERS[name]()
    stack = adapter.build_stack()
    adapter.mkfs(stack.top)
    fs = adapter.make_fs(stack.top)
    fs.mount()
    return adapter, stack, fs


def image_digest(stack) -> str:
    h = hashlib.sha256()
    for block in range(stack.disk.num_blocks):
        h.update(stack.disk.peek(block))
    return h.hexdigest()[:16]


def errno_sequence(outcomes):
    return [o if isinstance(o, str) and o.isupper() and o.startswith("E")
            else "ok" for o in outcomes]


def expected_sequence(script, name):
    return [e.get(name, e["*"]) if isinstance(e, dict) else e
            for _, _, e in script]


def outcome_digest(outcomes) -> str:
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16]


def capture(name):
    adapter, stack, fs = mounted(name)
    outcomes = run_script(SCRIPT, name, stack, fs, adapter)
    state = state_digest(fs, include_counts=True)
    damaged = run_script(DAMAGE_SCRIPT, name, stack, fs, adapter)
    read_only = fs.read_only
    fs.unmount()
    return outcomes, damaged, read_only, {
        "outcomes": outcome_digest(outcomes),
        "damaged": outcome_digest(damaged),
        "events": stack.events.digest()[:16],
        "state": state,
        "image": image_digest(stack),
    }


#: Captured at the commit before the directory operations moved into
#: ``JournaledFS`` (ext3, JFS and NTFS each still carrying a copy).
PINNED = {
    "ext3": {"outcomes": "42c26851683b330c", "damaged": "e54f918a907b42cb",
             "events": "6367c24bc1589526", "state": "362b090c9f4108fb",
             "image": "d49c47e6833dfad8"},
    "reiserfs": {"outcomes": "4f79afc2777dbb80", "damaged": "ca6b0492debd2216",
                 "events": "607524a7a43a544a", "state": "e17f0d63b5d7c0f1",
                 "image": "c618cdf10b38f3e8"},
    "jfs": {"outcomes": "5f793ecbe0a9f98d", "damaged": "05c16d49d606bca6",
            "events": "ee81ca5a14c9b124", "state": "a9eaf7461572bf52",
            "image": "5b54c2bcd612e7ac"},
    "ntfs": {"outcomes": "788e96c316bbb35e", "damaged": "330ab71c5dc6fe7b",
             "events": "28d42336c2626d8d", "state": "0d12962ddd3c7bac",
             "image": "6a71932d20b7052d"},
    "ixt3": {"outcomes": "00f41f440ac5a7bd", "damaged": "7d5faaf75ad5f174",
             "events": "8e5b2cbed1a95581", "state": "8dde3014d20beb9d",
             "image": "b5b00d1b708d1dac"},
}


@pytest.fixture(scope="module", params=FS_NAMES)
def captured(request):
    return (request.param,) + capture(request.param)


class TestPinnedDirectoryBehaviour:
    def test_result_or_errno_sequence(self, captured):
        name, outcomes, _, _, _ = captured
        assert errno_sequence(outcomes) == expected_sequence(SCRIPT, name)

    def test_damaged_result_or_errno_sequence(self, captured):
        name, _, damaged, _, _ = captured
        assert errno_sequence(damaged) == expected_sequence(DAMAGE_SCRIPT, name)

    def test_sanity_failure_stops_writes(self, captured):
        name, _, _, read_only, _ = captured
        assert read_only == (name in ("jfs", "ntfs"))

    def test_outcome_values(self, captured):
        name, _, _, _, digests = captured
        assert digests["outcomes"] == PINNED[name]["outcomes"]
        assert digests["damaged"] == PINNED[name]["damaged"]

    def test_event_stream_digest(self, captured):
        name, _, _, _, digests = captured
        assert digests["events"] == PINNED[name]["events"]

    def test_final_state_digest(self, captured):
        name, _, _, _, digests = captured
        assert digests["state"] == PINNED[name]["state"]

    def test_final_image_bytes(self, captured):
        name, _, _, _, digests = captured
        assert digests["image"] == PINNED[name]["image"]


def _step(script, outcomes, op, args):
    return outcomes[[(o, a) for o, a, _ in script].index((op, args))]


@pytest.mark.parametrize("name", FS_NAMES)
def test_directory_order_and_stat_fields(name):
    """The digests pin *sameness*; this checks a few results for truth."""
    adapter, stack, fs = mounted(name)
    outcomes = run_script(SCRIPT, name, stack, fs, adapter)
    listed = [o for (op, args, _), o in zip(SCRIPT, outcomes)
              if (op, args) == ("getdirentries", ("/g",))]
    first, holes, refilled, renamed = listed
    assert set(first) == {".", "..", *G[:11], SUB, CRE, SYM}
    assert set(holes) == set(first) - {G[1], G[9], G[5]}
    assert set(refilled) == set(holes) | {*G[12:16], "short"}
    assert set(renamed) == (set(refilled) - {SUB, G[15]}) | {REN}
    if name != "reiserfs":
        # Block-list directories keep insertion order and refill holes
        # front to back: each new name took the first room that fit.
        assert first == [".", "..", *G[:11], SUB, CRE, SYM]
        assert refilled == [".", "..", G[0], G[2], G[3], G[12], "short",
                            G[4], G[6], G[7], G[13],
                            G[8], G[10], SUB, G[14], CRE, SYM, G[15]]
    # stat: every field comes back through _stat_of.
    ino, mode, nlink, uid, gid, size, atime, mtime, _ = [
        o for (op, args, _), o in zip(SCRIPT, outcomes)
        if (op, args) == ("stat", ("/seed",))][-2]
    assert (mode & 0o170000, uid, gid, size, atime, mtime) == (
        0o100000, 7, 8, 4, 3.0, 4.0)
    assert nlink == 1 + 8 + 4 + 1     # /seed, G[:11] less three, G[12:16], short
    p1 = [o for (op, args, _), o in zip(SCRIPT, outcomes)
          if (op, args) == ("stat", ("/p1",))][-1]
    assert p1[1] == 0o040700 and p1[2] == 2
    sym = _step(SCRIPT, outcomes, "lstat", (f"/g/{SYM}",))
    assert sym[1] & 0o170000 == 0o120000 and sym[5] == len("/seed")
    assert _step(SCRIPT, outcomes, "stat", (f"/g/{SYM}",))[0] == ino
    # NTFS alone runs out of directory blocks.
    sizes = [o[5] for (op, args, _), o in zip(SCRIPT, outcomes)
             if (op, args) == ("lstat", ("/full",))]
    if name == "ntfs":
        assert sizes == [ntfs_structures.NUM_RUNS * BS] * 2
    full = _step(SCRIPT, outcomes, "getdirentries", ("/full",))
    expected = {".", "..", "short", *W[:147]} - {W[70]}
    if name == "ntfs":
        expected -= {W[144], W[146]}
    assert set(full) == expected


@pytest.mark.parametrize("name", ["ext3", "jfs", "ntfs", "ixt3"])
def test_damage_reaches_one_directory_block(name):
    adapter, stack, fs = mounted(name)
    run_script(SCRIPT[:2], name, stack, fs, adapter)
    outcomes = run_script(DAMAGE_SCRIPT, name, stack, fs, adapter)
    hits = [o for (op, _, _), o in zip(DAMAGE_SCRIPT, outcomes) if op == "damage"]
    assert [len(h) for h in hits] == [1, 1] and hits[0] == hits[1]
    listed = [o for (op, _, _), o in zip(DAMAGE_SCRIPT, outcomes)
              if op == "getdirentries"]
    if name in ("ext3", "jfs", "ntfs"):
        assert listed[0] == [".", "..", "marker-one", "marker-two", "far"]
    if name == "ext3":
        # Parsed blindly (§5.1): garbage names, no error.
        assert "zzzz" in listed[1] and "marker-one" not in listed[1]
    if name == "ixt3":
        # Mc catches both pokes and Mr repairs them.
        assert listed[0] == listed[1] == [".", "..", "marker-one", "marker-two"]
