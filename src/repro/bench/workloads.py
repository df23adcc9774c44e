"""The four Table-6 benchmark workloads (§6.2), scaled to simulator
size but preserving each workload's character:

* **SSH-Build** — unpack a source tree, "configure" (many small reads
  and writes), "build" (read sources, emit objects, link a binary):
  the typical action of a developer.
* **Web server** — static HTTP GETs over a fixed document set:
  read-intensive with concurrency.
* **PostMark** — small-file create/append/read/delete transactions in
  a directory tree: metadata intensive.
* **TPC-B** — debit-credit transactions with a synchronous commit
  (fsync) per transaction: synchronous update traffic.

All generators are deterministic (seeded) so variant comparisons
measure mechanism cost, not workload noise.  Each draws only through
its :class:`Tape`: the first call for a ``(scale, seed)`` records every
draw, later calls replay them, so a sweep generates each benchmark's
payloads once however many variants it runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.common.rng import random_bytes, stream as _seeded_stream
from repro.vfs.api import FileSystem
from repro.vfs.fdtable import O_RDONLY, O_RDWR, O_WRONLY


class TapeMismatch(RuntimeError):
    """A replaying generator asked for other draws than it recorded."""


class Tape:
    """One generator's random draws for the latest ``(scale, seed)``.

    The first call with a pair records every draw as ``(kind, args,
    value)`` from a fresh seeded stream; later calls replay them.  A
    generator's draws never depend on what the file system returns, and
    a value depends only on the kinds and args drawn before it, so a
    replay whose draws all match returns what a fresh stream would.
    Otherwise :class:`TapeMismatch` is raised: a kind or args differ,
    the tape runs out, or a run ends with draws left over.  A recording
    is kept only when the generator returns normally.
    """

    def __init__(self, name: str):
        self.name = name
        self.key: Any = None            # (scale, seed) of the recording
        self._draws: List[Tuple[str, tuple, Any]] = []
        self._recording: Any = None     # the fresh stream while recording
        self._next = 0

    def clear(self) -> None:
        self.key, self._draws = None, []

    @contextmanager
    def open(self, scale: BenchScale, seed: int) -> Iterator[Tape]:
        key = (scale, seed)
        if key != self.key:
            self.clear()
            self._recording = _seeded_stream(seed)
            try:
                yield self
            except BaseException:
                self.clear()
                raise
            finally:
                self._recording = None
            self.key = key
            return
        self._next = 0
        yield self
        left = len(self._draws) - self._next
        if left:
            raise TapeMismatch(f"{self.name}: run ended with {left} of "
                               f"{len(self._draws)} recorded draws left over")

    def _draw(self, kind: str, args: tuple, fresh: Callable) -> Any:
        if self._recording is not None:
            value = fresh(self._recording)
            self._draws.append((kind, args, value))
            return value
        i = self._next
        if i == len(self._draws):
            raise TapeMismatch(f"{self.name}: draw {i} {kind}{args} is past "
                               "the end of the tape")
        recorded = self._draws[i]
        if recorded[0] != kind or recorded[1] != args:
            raise TapeMismatch(f"{self.name}: draw {i} is {kind}{args}, the "
                               f"tape recorded {recorded[0]}{recorded[1]}")
        self._next = i + 1
        return recorded[2]

    def randrange(self, *args: int) -> int:
        return self._draw("randrange", args, lambda rng: rng.randrange(*args))

    def choice(self, seq: Sequence) -> Any:
        # The index, drawn exactly as ``rng.choice(seq)`` would draw it.
        n = len(seq)
        return seq[self._draw("choice", (n,),
                              lambda rng: rng.choice(range(n)))]

    def payload(self, n: int) -> bytes:
        return self._draw("payload", (n,), lambda rng: random_bytes(rng, n))


#: One tape per generator, by function name.
TAPES: Dict[str, Tape] = {name: Tape(name) for name in (
    "ssh_build", "web_server_setup", "web_server", "postmark", "tpcb")}


def _compute(fs: FileSystem, seconds: float) -> None:
    """Charge CPU time (compilation, request handling): the clock
    advances but no I/O is issued.  This is what makes SSH-Build's
    ratios compress toward 1.0, as on the paper's real testbed where
    compilation dominated the run."""
    raw = fs._raw_disk()
    if raw is not None:
        raw.stall(seconds)


@dataclass(frozen=True)
class BenchScale:
    """Scaled-down workload parameters (paper-size in comments)."""

    # SSH-Build: the paper unpacks an 11 MB tree and compiles it.
    ssh_dirs: int = 8
    ssh_sources: int = 60
    ssh_source_size: int = 6 * 1024
    ssh_objects: int = 40
    ssh_object_size: int = 3 * 1024

    # Web: the paper transfers 25 MB of static pages.
    web_files: int = 40
    web_file_size: int = 8 * 1024
    web_requests: int = 250

    # PostMark: the paper runs 1500 transactions over 1500 files
    # (4 KB - 1 MB) in 10 subdirectories.
    post_files: int = 200
    post_dirs: int = 10
    post_txns: int = 500
    post_min_size: int = 2 * 1024
    post_max_size: int = 32 * 1024

    # TPC-B: the paper runs 1000 debit-credit transactions.
    tpcb_accounts_blocks: int = 64
    tpcb_txns: int = 200

    # CPU cost per compile step (SSH) and per request (Web): on the
    # paper's testbed both workloads were compute/transfer bound.
    ssh_compile_cpu_s: float = 0.045
    ssh_configure_cpu_s: float = 0.012
    web_request_cpu_s: float = 0.004


def ssh_build(fs: FileSystem, scale: BenchScale, seed: int = 1) -> None:
    with TAPES["ssh_build"].open(scale, seed) as draws:
        # Unpack.
        fs.mkdir("/ssh")
        for d in range(scale.ssh_dirs):
            fs.mkdir(f"/ssh/dir{d}")
        sources = []
        for i in range(scale.ssh_sources):
            d = i % scale.ssh_dirs
            path = f"/ssh/dir{d}/src{i}.c"
            fs.write_file(path, draws.payload(scale.ssh_source_size))
            sources.append(path)
        # Configure: probe headers (reads) and write small config outputs.
        for i in range(20):
            fs.read_file(sources[draws.randrange(len(sources))])
            fs.write_file(f"/ssh/conftest{i}", b"#define HAVE_FEATURE 1\n" * 8)
            fs.unlink(f"/ssh/conftest{i}")
            _compute(fs, scale.ssh_configure_cpu_s)
        fs.write_file("/ssh/config.h", b"#define CONFIGURED 1\n" * 32)
        # Build: read each source, emit an object; then link.
        objects = []
        for i in range(scale.ssh_objects):
            fs.read_file(sources[i % len(sources)])
            _compute(fs, scale.ssh_compile_cpu_s)  # the compiler runs
            obj = f"/ssh/dir{i % scale.ssh_dirs}/obj{i}.o"
            fs.write_file(obj, draws.payload(scale.ssh_object_size))
            objects.append(obj)
        linked = bytearray()
        for obj in objects:
            linked += fs.read_file(obj)[:1024]
        fs.write_file("/ssh/sshd", bytes(linked))
        fs.sync()


def web_server_setup(fs: FileSystem, scale: BenchScale, seed: int = 2) -> None:
    with TAPES["web_server_setup"].open(scale, seed) as draws:
        fs.mkdir("/htdocs")
        for i in range(scale.web_files):
            fs.write_file(f"/htdocs/page{i}.html",
                          draws.payload(scale.web_file_size))
        fs.sync()


def web_server(fs: FileSystem, scale: BenchScale, seed: int = 3) -> None:
    """The measured phase: static GETs (reads only)."""
    with TAPES["web_server"].open(scale, seed) as draws:
        for _ in range(scale.web_requests):
            i = draws.randrange(scale.web_files)
            path = f"/htdocs/page{i}.html"
            fd = fs.open(path, O_RDONLY)
            st = fs.stat(path)
            fs.read(fd, st.size, offset=0)
            fs.close(fd)
            _compute(fs, scale.web_request_cpu_s)


def postmark(fs: FileSystem, scale: BenchScale, seed: int = 4) -> None:
    with TAPES["postmark"].open(scale, seed) as draws:
        for d in range(scale.post_dirs):
            fs.mkdir(f"/pm{d}")
        live: Dict[str, int] = {}
        serial = 0

        def create_one():
            nonlocal serial
            d = draws.randrange(scale.post_dirs)
            path = f"/pm{d}/file{serial}"
            serial += 1
            size = draws.randrange(scale.post_min_size, scale.post_max_size)
            fs.write_file(path, draws.payload(size))
            live[path] = size

        for _ in range(scale.post_files):
            create_one()
        for _ in range(scale.post_txns):
            op = draws.randrange(4)
            if op == 0 or not live:
                create_one()
            elif op == 1:
                path = draws.choice(sorted(live))
                fs.unlink(path)
                del live[path]
            elif op == 2:
                path = draws.choice(sorted(live))
                fs.read_file(path)
            else:
                path = draws.choice(sorted(live))
                fd = fs.open(path, O_WRONLY)
                fs.write(fd, draws.payload(256), offset=live[path])
                fs.close(fd)
                live[path] += 256
        for path in sorted(live):
            fs.unlink(path)
        fs.sync()


#: TPC-B's "update": every byte of a 64-byte record plus one, mod 256.
_INCREMENT = bytes((b + 1) % 256 for b in range(256))


def tpcb(fs: FileSystem, scale: BenchScale, seed: int = 5) -> None:
    with TAPES["tpcb"].open(scale, seed) as draws:
        bs = fs.statfs().block_size
        fs.write_file("/accounts.db",
                      b"\x00" * (scale.tpcb_accounts_blocks * bs))
        fs.write_file("/history.log", b"")
        fs.sync()
        acct_fd = fs.open("/accounts.db", O_RDWR)
        hist_fd = fs.open("/history.log", O_WRONLY)
        hist_off = 0
        for txn in range(scale.tpcb_txns):
            # Debit-credit: read-modify-write an account, teller and branch
            # record, then append to the history and commit synchronously.
            for _ in range(3):
                blk = draws.randrange(scale.tpcb_accounts_blocks)
                old = fs.read(acct_fd, 64, offset=blk * bs)
                record = old.ljust(64, b"\x00").translate(_INCREMENT)
                fs.write(acct_fd, record, offset=blk * bs)
            entry = f"txn {txn:08d} commit\n".encode()
            fs.write(hist_fd, entry, offset=hist_off)
            hist_off += len(entry)
            fs.fsync(hist_fd)
        fs.close(acct_fd)
        fs.close(hist_fd)
        fs.sync()


#: The measured phase of each benchmark; setup (if any) runs untimed.
BENCHMARKS: Dict[str, Dict[str, Callable]] = {
    "SSH": {"setup": None, "run": ssh_build},
    "Web": {"setup": web_server_setup, "run": web_server},
    "Post": {"setup": None, "run": postmark},
    "TPCB": {"setup": None, "run": tpcb},
}
