"""Pin for the namespace half of the syscall surface.

One scripted workload reaches every namespace op — path walk, creat /
open / close, link / unlink, rmdir, rename, getdirentries, stat / lstat,
chmod / chown / utimes, readlink — on its success path and on each errno
branch, over all five ``ADAPTERS`` file systems.  Three things are
pinned per file system:

* the ``(result | errno)`` sequence the caller sees,
* ``EventLog.digest()`` of the device stack's stream (every block I/O
  the ops issued, in order, with its virtual time),
* the crash engine's ``state_digest`` of the final namespace and a
  SHA-256 of the unmounted image.

The literals were captured from the per-FS namespace code that
predates the shared ``JournaledFS`` layer, so any refactor of that
layer must reproduce the old device I/O byte for byte.

A traced run of the same script also asserts one ``op`` span per
syscall issued: ``FileSystem.__init_subclass__`` wraps every
class-level definition of a syscall, so an override that chained to a
base implementation would show up here as a nested second span.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.common.errors import FSError
from repro.crash.engine import state_digest
from repro.fingerprint.adapters import ADAPTERS
from repro.obs.trace import SpanStartEvent, enable_tracing
from repro.vfs.fdtable import O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY
from repro.vfs.stat import StatResult

FS_NAMES = ["ext3", "reiserfs", "jfs", "ntfs", "ixt3"]

BIG = bytes(range(256)) * 12  # 3 KB: spans blocks on every geometry

#: (op, args, expected) — expected is an errno name, or ``"ok"`` for
#: "returns normally" (the exact value is pinned by the outcome digest);
#: a dict gives per-file-system expectations with ``"*"`` as the default.
#: A ``"fd:PATH"`` argument is the descriptor the latest ``creat`` or
#: ``open`` of PATH returned.
SCRIPT = [
    # -- mkdir / creat / close ------------------------------------------
    ("mkdir", ("/d",), "ok"),
    ("mkdir", ("/d",), "EEXIST"),
    ("mkdir", ("/nope/x",), "ENOENT"),
    ("creat", ("/d/f",), "ok"),
    ("write", ("fd:/d/f", BIG), "ok"),
    ("close", ("fd:/d/f",), "ok"),
    ("close", ("fd:/d/f",), "EBADF"),
    ("creat", ("/d",), "EISDIR"),
    ("creat", ("/d/f/x",), "ENOTDIR"),
    ("creat", ("/missing/x",), "ENOENT"),
    ("stat", ("/d/f",), "ok"),
    ("creat", ("/d/f",), "ok"),                              # truncates
    ("write", ("fd:/d/f", b"hello world"), "ok"),
    ("close", ("fd:/d/f",), "ok"),
    ("stat", ("/d/f",), "ok"),
    # -- open -------------------------------------------------------------
    ("open", ("/d/f", O_RDONLY), "ok"),
    ("read", ("fd:/d/f", 64), "ok"),
    ("write", ("fd:/d/f", b"x"), "EBADF"),
    ("close", ("fd:/d/f",), "ok"),
    ("open", ("/d", O_WRONLY), "EISDIR"),
    ("open", ("/d", O_RDONLY), "ok"),
    ("close", ("fd:/d",), "ok"),
    ("open", ("/d/new", O_CREAT | O_WRONLY), "ok"),
    ("write", ("fd:/d/new", BIG), "ok"),
    ("close", ("fd:/d/new",), "ok"),
    ("open", ("/d/new", O_TRUNC | O_WRONLY), "ok"),
    ("close", ("fd:/d/new",), "ok"),
    ("stat", ("/d/new",), "ok"),
    ("open", ("/d/none", O_RDONLY), "ENOENT"),
    ("open", ("/d/f/x", O_CREAT | O_WRONLY), "ENOTDIR"),
    ("read", (99, 1), "EBADF"),
    # -- link / unlink ----------------------------------------------------
    ("link", ("/d/new", "/d/hl"), "ok"),
    ("stat", ("/d/new",), "ok"),
    ("link", ("/d/new", "/d/hl"), "EEXIST"),
    ("link", ("/d", "/dlink"), "EPERM"),
    ("link", ("/d/none", "/x"), "ENOENT"),
    ("link", ("/d/new", "/d/f/x"), "ENOTDIR"),
    ("unlink", ("/d/hl",), "ok"),                            # non-last link
    ("stat", ("/d/new",), "ok"),
    ("unlink", ("/d/new",), "ok"),                           # last link
    ("stat", ("/d/new",), "ENOENT"),
    ("unlink", ("/d/new",), "ENOENT"),
    ("unlink", ("/d",), "EISDIR"),
    # -- symlinks through _lookup and through readlink --------------------
    ("symlink", ("f", "/d/sl"), "ok"),
    ("symlink", ("/d", "/dl"), "ok"),
    ("symlink", ("/nowhere", "/dang"), "ok"),
    ("symlink", ("/loop2", "/loop1"), "ok"),
    ("symlink", ("/loop1", "/loop2"), "ok"),
    ("symlink", ("x", "/dl"), "EEXIST"),
    ("readlink", ("/d/sl",), "ok"),
    ("readlink", ("/dang",), "ok"),
    ("readlink", ("/d/f",), "EINVAL"),
    ("readlink", ("/none",), "ENOENT"),
    ("stat", ("/d/sl",), "ok"),
    ("lstat", ("/d/sl",), "ok"),
    ("stat", ("/dang",), "ENOENT"),
    ("lstat", ("/dang",), "ok"),
    ("stat", ("/loop1",), "ELOOP"),
    ("lstat", ("/loop1",), "ok"),
    ("stat", ("/dl/f",), "ok"),
    ("stat", ("/dl/sl",), "ok"),
    ("stat", ("/d/f/x",), "ENOTDIR"),
    ("open", ("/dl/sl", O_RDONLY), "ok"),
    ("read", ("fd:/dl/sl", 5), "ok"),
    ("close", ("fd:/dl/sl",), "ok"),
    ("open", ("/dang", O_CREAT | O_WRONLY), "ok"),           # through a dangling link
    ("close", ("fd:/dang",), "ok"),
    ("readlink", ("/dang",), "ok"),                          # now empty
    # ext3 and NTFS see a link with no body block as dangling; JFS and
    # ReiserFS read back "" and resolve it to the link's own directory.
    ("stat", ("/dang",), {"*": "ENOENT", "jfs": "ok", "reiserfs": "ok"}),
    # -- getdirentries ----------------------------------------------------
    ("getdirentries", ("/d",), "ok"),
    ("getdirentries", ("/dl",), "ok"),
    ("getdirentries", ("/",), "ok"),
    ("getdirentries", ("/d/f",), "ENOTDIR"),
    ("getdirentries", ("/none",), "ENOENT"),
    # -- attributes -------------------------------------------------------
    ("chmod", ("/d/f", 0o600), "ok"),
    ("chown", ("/d/f", 5, 6), "ok"),
    ("utimes", ("/d/f", 10.0, 20.0), "ok"),
    ("stat", ("/d/f",), "ok"),
    ("chmod", ("/d/sl", 0o640), "ok"),                       # follows the link
    ("stat", ("/d/f",), "ok"),
    ("chmod", ("/none", 0o600), "ENOENT"),
    ("chown", ("/none", 1, 1), "ENOENT"),
    ("utimes", ("/none", 1.0, 1.0), "ENOENT"),
    ("truncate", ("/d/f", 4), "ok"),
    ("truncate", ("/d", 0), "EISDIR"),
    ("truncate", ("/none", 0), "ENOENT"),
    # -- rmdir ------------------------------------------------------------
    ("mkdir", ("/d/sub",), "ok"),
    ("creat", ("/d/sub/x",), "ok"),
    ("close", ("fd:/d/sub/x",), "ok"),
    ("stat", ("/d",), "ok"),
    ("rmdir", ("/d/sub",), "ENOTEMPTY"),
    ("rmdir", ("/d/f",), "ENOTDIR"),
    ("rmdir", ("/none",), "ENOENT"),
    ("rmdir", ("/",), "EINVAL"),
    ("unlink", ("/d/sub/x",), "ok"),
    ("rmdir", ("/d/sub",), "ok"),
    ("stat", ("/d",), "ok"),
    ("stat", ("/d/sub",), "ENOENT"),
    # -- rename -----------------------------------------------------------
    ("rename", ("/none", "/x"), "ENOENT"),
    ("rename", ("/d/f", "/d/f"), "ok"),                      # onto itself
    ("mkdir", ("/a",), "ok"),
    ("mkdir", ("/a/b",), "ok"),
    ("rename", ("/a", "/a/b/c"), "EINVAL"),                  # into own subtree
    ("creat", ("/r1",), "ok"),
    ("write", ("fd:/r1", BIG), "ok"),
    ("close", ("fd:/r1",), "ok"),
    ("creat", ("/r2",), "ok"),
    ("write", ("fd:/r2", BIG[:1500]), "ok"),
    ("close", ("fd:/r2",), "ok"),
    ("rename", ("/r1", "/r2"), "ok"),                        # over an existing file
    ("stat", ("/r2",), "ok"),
    ("stat", ("/r1",), "ENOENT"),
    ("link", ("/r2", "/r2b"), "ok"),
    ("creat", ("/r3",), "ok"),
    ("close", ("fd:/r3",), "ok"),
    ("rename", ("/r3", "/r2b"), "ok"),                       # over one of two links
    ("stat", ("/r2",), "ok"),
    ("mkdir", ("/e",), "ok"),
    ("mkdir", ("/m",), "ok"),
    ("rename", ("/m", "/e"), "ok"),                          # over an empty directory
    ("stat", ("/",), "ok"),
    ("mkdir", ("/m2",), "ok"),
    ("rename", ("/m2", "/a"), "ENOTEMPTY"),
    ("rename", ("/r2", "/e"), "EISDIR"),
    ("rename", ("/e", "/r2"), "ENOTDIR"),
    ("rename", ("/r2", "/none/x"), "ENOENT"),
    ("mkdir", ("/p1",), "ok"),
    ("mkdir", ("/p1/k",), "ok"),
    ("creat", ("/p1/k/leaf",), "ok"),
    ("close", ("fd:/p1/k/leaf",), "ok"),
    ("mkdir", ("/p2",), "ok"),
    ("rename", ("/p1/k", "/p2/k2"), "ok"),                   # directory across parents
    ("stat", ("/p1",), "ok"),
    ("stat", ("/p2",), "ok"),
    ("getdirentries", ("/p2/k2",), "ok"),
    ("stat", ("/p2/k2/../k2/leaf",), "ok"),
    ("rename", ("/d/sl", "/d/sl2"), "ok"),                   # a symlink keeps its type
    ("lstat", ("/d/sl2",), "ok"),
    ("link", ("/dang", "/dang2"), "ok"),                     # hard link to a symlink
    ("rename", ("/dang2", "/p2/dang3"), "ok"),
    ("lstat", ("/p2/dang3",), "ok"),
    ("readlink", ("/p2/dang3",), "ok"),
    # -- cwd-relative paths and a directory that outgrows one block -------
    ("chdir", ("/d",), "ok"),
    ("creat", ("rel",), "ok"),
    ("close", ("fd:rel",), "ok"),
    ("stat", ("sl2",), "ok"),
    ("rename", ("rel", "../rel2"), "ok"),
    ("chdir", ("/",), "ok"),
    ("stat", ("/rel2",), "ok"),
    ("mkdir", ("/big",), "ok"),
] + [
    ("write_file", (f"/big/{'n' * 40}-{i:02d}", b"%d" % i), "ok") for i in range(30)
] + [
    ("unlink", (f"/big/{'n' * 40}-{i:02d}",), "ok") for i in range(0, 30, 3)
] + [
    ("getdirentries", ("/big",), "ok"),
    ("stat", ("/big",), "ok"),
    ("statfs", (), "ok"),
    ("sync", (), "ok"),
]


def _normalise(value):
    if isinstance(value, StatResult):
        kind = "d" if value.is_dir else "l" if value.is_symlink else "f"
        return (kind, value.perm_bits, value.nlink, value.uid, value.gid,
                None if value.is_dir else value.size, value.atime, value.mtime)
    if isinstance(value, list):
        return sorted(value)
    return value


def run_script(fs):
    """Apply SCRIPT to a mounted *fs*; return the outcome per step."""
    outcomes = []
    fds = {}
    for op, args, _ in SCRIPT:
        args = tuple(fds[a[3:]] if isinstance(a, str) and a.startswith("fd:")
                     else a for a in args)
        try:
            result = getattr(fs, op)(*args)
        except FSError as exc:
            outcomes.append(exc.errno.name)
            continue
        if op in ("creat", "open"):
            fds[args[0]] = result
        outcomes.append(_normalise(result))
    return outcomes


def mounted(name, trace=False):
    adapter = ADAPTERS[name]()
    stack = adapter.build_stack()
    adapter.mkfs(stack.top)
    fs = adapter.make_fs(stack.top)
    fs.mount()
    if trace:
        enable_tracing(stack.events)
    return stack, fs


def image_digest(stack) -> str:
    h = hashlib.sha256()
    for block in range(stack.disk.num_blocks):
        h.update(stack.disk.peek(block))
    return h.hexdigest()[:16]


def errno_sequence(outcomes):
    return [o if isinstance(o, str) and o.isupper() and o.startswith("E")
            else "ok" for o in outcomes]


def expected_sequence(name):
    return [e.get(name, e["*"]) if isinstance(e, dict) else e
            for _, _, e in SCRIPT]


def outcome_digest(outcomes) -> str:
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16]


def capture(name):
    stack, fs = mounted(name)
    outcomes = run_script(fs)
    state = state_digest(fs, include_counts=True)
    fs.unmount()
    return outcomes, {
        "outcomes": outcome_digest(outcomes),
        "events": stack.events.digest()[:16],
        "state": state,
        "image": image_digest(stack),
    }


#: Captured at the commit before the namespace code moved into
#: ``JournaledFS`` (each file system still carrying its own copy).
PINNED = {
    "ext3": {"outcomes": "34971a009e548e8c", "events": "62708d613dc35d3a",
             "state": "043461ecf1adb95c", "image": "fdac6a21d3fc50d6"},
    "reiserfs": {"outcomes": "4f8891ad8577f815", "events": "a7a31b99d633e889",
                 "state": "2b61ca05c136b4a6", "image": "802e755454077ce0"},
    "jfs": {"outcomes": "2ddac90a9b86cfd8", "events": "1bc71b6bb3ab8d7f",
            "state": "772c18c1f572e192", "image": "7050006000c21162"},
    "ntfs": {"outcomes": "83f010e86422023d", "events": "58cd8cc6ca35b291",
             "state": "3f49031a3da1439a", "image": "888b16226aaab008"},
    "ixt3": {"outcomes": "94964e493a1841e4", "events": "3e1c9d982090304b",
             "state": "39568db4e6a870e5", "image": "5a251dd878643f88"},
}


@pytest.fixture(scope="module", params=FS_NAMES)
def captured(request):
    return (request.param,) + capture(request.param)


class TestPinnedNamespaceBehaviour:
    def test_result_or_errno_sequence(self, captured):
        name, outcomes, _ = captured
        assert errno_sequence(outcomes) == expected_sequence(name)

    def test_outcome_values(self, captured):
        name, _, digests = captured
        assert digests["outcomes"] == PINNED[name]["outcomes"]

    def test_event_stream_digest(self, captured):
        name, _, digests = captured
        assert digests["events"] == PINNED[name]["events"]

    def test_final_state_digest(self, captured):
        name, _, digests = captured
        assert digests["state"] == PINNED[name]["state"]

    def test_final_image_bytes(self, captured):
        name, _, digests = captured
        assert digests["image"] == PINNED[name]["image"]


#: What each helper that is not itself a traced syscall issues.
_SYSCALLS_PER_STEP = {"chdir": 1, "write_file": 4}


@pytest.mark.parametrize("name", FS_NAMES)
def test_one_op_span_per_syscall(name):
    stack, fs = mounted(name, trace=True)
    outcomes = run_script(fs)
    spans = [e for e in stack.events if isinstance(e, SpanStartEvent)
             and e.category == "op"]
    issued = sum(_SYSCALLS_PER_STEP.get(op, 1) for op, _, _ in SCRIPT)
    assert len(spans) == issued
    op_ids = {s.span_id for s in spans}
    assert not [s for s in spans if s.parent_id in op_ids]
    # Tracing must not perturb what the caller sees.
    assert outcome_digest(outcomes) == PINNED[name]["outcomes"]
