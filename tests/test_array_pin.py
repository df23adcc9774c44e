"""Pin of everything an array does that an observer can see.

One script per geometry drives a small array through every recovery,
write, scrub, rebuild and gray-box path and, after each phase, folds
what is observable into one digest: the array's typed event stream,
every member's requests in the phase (op, block and outcome, in issue
order, as :class:`~member_requests.MemberRequests` records them),
``DiskStats``, clock and raw image,
the suspect and stale sets, the counters and cursor, the phase's own
results (read payloads, exceptions, scrub report lists) and ``peek`` /
``peek_view`` of every logical block.  ``PINNED`` holds the digests the
script produced at commit e7f255f, while members still kept an I/O log
of their own (it was first taken at 7c46ca4, before the array refactor
this file was written to hold still, over that log); a refactor of
``redundancy/array.py`` that reorders one member request, drops one
event or changes one recovered byte moves the digest of the phase in
which it happened.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.disk.faults import Fault, FaultKind, FaultOp, Persistence
from repro.obs.events import EventLog
from repro.obs.trace import enable_tracing
from repro.redundancy import make_array

from member_requests import MemberRequests

NUM_BLOCKS = 50   # leaves padding slots in the last parity / RDP stripe
BS = 512

GEOMETRIES = {
    "mirror2": ("mirror", 2),
    "mirror3": ("mirror", 3),
    "parity4": ("parity", 4),
    "rdp5": ("rdp", 5),
}

#: Members failed (then replaced and rebuilt) one after the other.  The
#: parity member rotates, so one victim is a data member in some
#: stripes and the parity member in others; RDP's parity columns are
#: fixed, so a data column, row parity and diagonal parity each take a
#: turn, then two columns at once.
VICTIMS = {
    "mirror2": [(0,), (1,)],
    "mirror3": [(0,), (2,), (0, 1)],
    "parity4": [(0,), (3,)],
    "rdp5": [(1,), (4,), (5,), (0, 2), (1, 5)],
}

#: Member cells silently corrupted before one full scrub, one list per
#: scrub, all in the first scrub unit(s) so a logical ``poke`` can put
#: the unit right again afterwards.
CORRUPTIONS = {
    # A two-way mismatch is a tie: detected, not attributable.
    "mirror2": [[(1, 3)], [(0, 4)]],
    # One bad copy is outvoted; two differently bad copies leave no
    # majority.
    "mirror3": [[(1, 3)], [(0, 4), (2, 4)], [(2, 5)]],
    # Data member, then the stripe's parity member: both unattributable.
    "parity4": [[(1, 0)], [(1, 1)], [(2, 2), (3, 2)]],
    # Data cell; row-parity cell; diagonal-parity cell; a data cell on
    # the missing diagonal (row + col == p - 1); two cells of one stripe.
    "rdp5": [[(0, 1)], [(4, 2)], [(5, 0)], [(3, 1)], [(0, 0), (2, 3)],
             [(1, 5)]],
}


def _payload(block: int, salt: int = 0) -> bytes:
    return bytes([(block * 31 + salt * 17 + 7) % 256]) * BS


def _noise(tag: int) -> bytes:
    return bytes((tag * 13 + i * 7 + 1) % 256 for i in range(BS))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _outcome(call):
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - the pin is "same exception"
        return ["raised", type(exc).__name__, str(exc)]
    if isinstance(result, (bytes, bytearray, memoryview)):
        return ["ok", _sha(bytes(result))]
    return ["ok", result]


def _report(report):
    return {
        "units": report.units_scanned,
        "blocks": report.blocks_scanned,
        "latent": report.latent_errors,
        "corrupt": report.corruptions,
        "repaired": report.repaired,
        "unrepairable": report.unrepairable,
    }


class _Script:
    def __init__(self, label: str, requests: MemberRequests):
        kind, members = GEOMETRIES[label]
        self.label = label
        self.array = make_array(kind, NUM_BLOCKS, BS, members=members)
        self.array.events = EventLog()
        self.requests = requests
        requests.watch(self.array)
        self.n = len(self.array.members)
        self.phases = []

    # -- observation -----------------------------------------------------------

    def _observe(self):
        array = self.array
        members = []
        for member in array.members:
            disk = member.disk
            stats = disk.stats
            image = b"".join(bytes(disk.peek(b)) for b in range(disk.num_blocks))
            members.append({
                "stats": [stats.reads, stats.writes, stats.seeks,
                          repr(stats.busy_time_s)],
                "clock": repr(disk.clock),
                "image": _sha(image),
                "failed": disk.failed,
                "io": _sha(json.dumps(self.requests.drain(member)).encode()),
                "dirty": [disk.dirty_count,
                          _sha(repr(disk.dirty_items()).encode())],
            })
        return {
            "events": array.events.digest(),
            "members": members,
            "suspect": sorted(array._suspect),
            "stale": sorted(array._stale),
            "logical": dataclasses.astuple(array.stats)[:5]
            + (repr(array.stats.busy_time_s),),
            "counters": [array.degraded_reads, array.degraded_writes,
                         array.read_repairs, array.rebuilt_blocks,
                         array.scrub_repairs, array.scrub_passes,
                         array.scrub_cursor, array.dirty_count,
                         array.degraded],
            "peek": [_sha(bytes(array.peek(b))) for b in range(NUM_BLOCKS)],
            "peek_view": [_sha(bytes(array.peek_view(b)))
                          for b in range(NUM_BLOCKS)],
            "dirty": _sha(repr(array.dirty_items()).encode()),
            "dirty_some": _sha(repr(array.dirty_contents(
                range(0, NUM_BLOCKS, 3))).encode()),
            "dirty_any": [array.any_dirty_in(range(b, b + 5))
                          for b in range(0, NUM_BLOCKS, 5)],
            "fingerprint": [
                array.fingerprint_matches(
                    range(NUM_BLOCKS), tuple(array.dirty_items())),
                array.fingerprint_matches(
                    range(NUM_BLOCKS), tuple(array.dirty_items()[1:])),
                array.fingerprint_matches(range(0), ())],
            "member_io": dataclasses.astuple(array.merged_member_stats())[:5],
        }

    def checkpoint(self, name: str, results=None) -> None:
        body = {"results": results, "state": self._observe()}
        blob = json.dumps(body, sort_keys=True, default=list).encode()
        self.phases.append((name, _sha(blob)))

    # -- fault helpers -----------------------------------------------------------

    def lse(self, m: int, mb: int, transient: bool = False) -> None:
        self.array.members[m].injector.arm(Fault(
            FaultOp.READ, FaultKind.FAIL, block=mb,
            persistence=(Persistence.TRANSIENT if transient
                         else Persistence.STICKY)))

    def write_fault(self, m: int, mb: int) -> None:
        self.array.members[m].injector.arm(
            Fault(FaultOp.WRITE, FaultKind.FAIL, block=mb))

    def clear_faults(self) -> None:
        for member in self.array.members:
            member.injector.clear_faults()

    def read_all(self):
        return [_outcome(lambda b=b: self.array.read_block(b))
                for b in range(NUM_BLOCKS)]

    def write_all(self, salt: int, step: int = 1):
        return [_outcome(lambda b=b: self.array.write_block(
            b, _payload(b, salt))) for b in range(0, NUM_BLOCKS, step)]

    def settle(self, salt: int) -> None:
        """Put the array back into a fully consistent, trusted state
        through the gray-box door, so the next phase starts clean."""
        self.clear_faults()
        for b in range(NUM_BLOCKS):
            self.array.poke(b, _payload(b, salt))

    # -- the script ---------------------------------------------------------------

    def run(self):
        array = self.array
        locate = array._locate

        # Healthy fill and read.
        self.checkpoint("fill", self.write_all(0))
        self.checkpoint("read", self.read_all())
        array.flush()
        array.stall(0.25)
        self.checkpoint("stall")

        # A latent sector error: degraded read plus read-repair; the
        # sticky fault then makes the next read degraded again; a
        # transient one is gone after it fired.
        m, mb = locate(5)
        self.lse(m, mb)
        results = [_outcome(lambda: array.read_block(5)) for _ in range(2)]
        m2, mb2 = locate(22)
        self.lse(m2, mb2, transient=True)
        results += [_outcome(lambda: array.read_block(22)) for _ in range(2)]
        self.checkpoint("lse-read-repair", results)
        self.clear_faults()

        # The repair write fails too: the cell goes suspect, reads of it
        # route around the member until a repair lands.
        m, mb = locate(7)
        self.lse(m, mb)
        self.write_fault(m, mb)
        results = [_outcome(lambda: array.read_block(7)) for _ in range(2)]
        self.checkpoint("lse-repair-fails", results)
        self.clear_faults()
        self.checkpoint("suspect-healed", _outcome(lambda: array.read_block(7)))

        # Two, then three, latent errors in one stripe (a later row for
        # RDP, so a column read stops part-way).
        for block in (9, 27):
            m, mb = locate(block)
            results = []
            for k in range(min(3, self.n)):
                self.lse((m + k) % self.n, mb)
                results.append(_outcome(lambda: array.read_block(block)))
                results.append(_outcome(
                    lambda: array.write_block(block, _payload(block, 1))))
            self.checkpoint(f"stripe-lses-{block}", results)
            self.clear_faults()
        self.settle(1)
        self.checkpoint("settled-1")

        # A failed write to the data cell only: the degraded-write
        # report (mirror: fewer copies; parity: RMW with the data write
        # lost; RDP: the delta path), then reads around the suspect.
        m, mb = locate(13)
        self.write_fault(m, mb)
        results = [_outcome(lambda: array.write_block(13, _payload(13, 2))),
                   _outcome(lambda: array.read_block(13))]
        self.checkpoint("write-fault", results)
        self.clear_faults()
        self.checkpoint("write-fault-healed",
                        _outcome(lambda: array.read_block(13)))

        # Every redundancy cell of one block refuses the write.
        m, mb = locate(14)
        for other in range(self.n):
            if other != m:
                self.write_fault(other, mb)
        if array.kind == "rdp":
            for r in range(array.rows):
                self.write_fault(array._diag_parity, mb - mb % array.rows + r)
        results = [_outcome(lambda: array.write_block(14, _payload(14, 2))),
                   _outcome(lambda: array.read_block(14))]
        self.checkpoint("redundancy-write-fault", results)
        self.clear_faults()

        # Data and parity cells both refuse: nothing lands.  Block 15
        # shares a stripe with the suspects the phase above left (RDP
        # falls back to a full-stripe write), block 31 starts clean.
        results = []
        for block in (15, 31):
            m, mb = locate(block)
            for other in range(self.n):
                self.write_fault(other, mb)
            if array.kind == "rdp":
                for r in range(array.rows):
                    self.write_fault(array._diag_parity,
                                     mb - mb % array.rows + r)
            results.append(_outcome(
                lambda: array.write_block(block, _payload(block, 2))))
            self.clear_faults()
        self.checkpoint("all-write-fault", results)
        self.settle(2)

        if array.kind == "parity":
            # The data cell is suspect with new parity landed, then the
            # parity cell goes suspect under a neighbour's write: peek
            # sees a data member and a parity member both untrusted.
            dm, stripe = locate(16)
            pm = array._parity_member(stripe)
            self.write_fault(dm, stripe)
            results = [_outcome(
                lambda: array.write_block(16, _payload(16, 3)))]
            self.clear_faults()
            self.write_fault(pm, stripe)
            results.append(_outcome(
                lambda: array.write_block(17, _payload(17, 3))))
            self.checkpoint("data-and-parity-suspect", results)
            self.clear_faults()
            # Both old data and old parity unreadable, and a peer too:
            # data lands, parity cannot be maintained.
            dm, stripe = locate(19)
            pm = array._parity_member(stripe)
            peer = next(o for o in range(self.n) if o not in (dm, pm))
            self.lse(pm, stripe)
            self.lse(peer, stripe)
            self.checkpoint("parity-unmaintained", _outcome(
                lambda: array.write_block(19, _payload(19, 3))))
            self.settle(3)

        # Member fail-stop: degraded reads, every degraded-write path,
        # a replacement, and the rebuild.
        for round_, victims in enumerate(VICTIMS[self.label]):
            tag = "fail" + "".join(str(v) for v in victims)
            for victim in victims:
                array.fail_member(victim)
            self.checkpoint(f"{tag}-read", self.read_all())
            self.checkpoint(f"{tag}-write", self.write_all(4 + round_))
            for victim in victims:
                array.replace_member(victim)
            self.checkpoint(f"{tag}-replaced", self.read_all()[::7])
            results = [_outcome(lambda v=victim: array.rebuild_member(v))
                       for victim in victims]
            self.checkpoint(f"{tag}-rebuilt", results)
            self.checkpoint(f"{tag}-verify", self.read_all())

        # A peer's latent error inside the rebuild window, and a spare
        # that refuses one write.
        array.fail_member(0)
        array.replace_member(0)
        self.lse(1, 2)
        self.lse(1, 6)
        self.write_fault(0, 9)
        self.checkpoint("rebuild-window",
                        _outcome(lambda: array.rebuild_member(0)))
        self.clear_faults()
        self.checkpoint("rebuild-window-reads", self.read_all())
        self.checkpoint("rebuild-window-scrub", _report(array.scrub()))
        self.settle(9)

        # Silent corruption: each scrub verdict the geometry has.
        for i, cells in enumerate(CORRUPTIONS[self.label]):
            for j, (m, mb) in enumerate(cells):
                array.members[m].disk.poke(mb, _noise(i * 5 + j))
            self.checkpoint(f"corrupt-{i}-scrub", _report(array.scrub()))
            self.checkpoint(f"corrupt-{i}-rescrub", _report(array.scrub()))
            self.settle(9)

        # Scrub meets latent errors: one (repair lands), one whose
        # repair write fails, two in a unit, all members of a unit.
        unit = 1
        cell = unit * array._unit_blocks + (array._unit_blocks - 1) // 2
        self.lse(1, cell)
        self.checkpoint("scrub-lse", _report(array.scrub()))
        self.write_fault(1, cell)
        self.checkpoint("scrub-lse-write-fault", _report(array.scrub(0, 3)))
        self.clear_faults()
        self.checkpoint("scrub-after-suspect", _report(array.scrub()))
        self.checkpoint("suspect-reads", self.read_all())
        self.lse(0, cell)
        self.lse(self.n - 1, cell)
        self.checkpoint("scrub-two-lses", _report(array.scrub(0, 3)))
        for m in range(self.n):
            self.lse(m, cell + array._unit_blocks)
        array.members[1].disk.poke(0, _noise(40))
        self.checkpoint("scrub-all-lses", _report(array.scrub()))
        self.settle(9)

        # Silent corruption whose repair write is refused.
        array.members[1].disk.poke(cell, _noise(41))
        self.write_fault(1, cell)
        self.checkpoint("scrub-corrupt-write-fault", _report(array.scrub()))
        self.settle(9)

        # Scrub with a failed member, then with a stale one.
        array.fail_member(1)
        self.checkpoint("scrub-failed-member", _report(array.scrub(1, 3)))
        array.replace_member(1)
        self.checkpoint("scrub-stale-member", _report(array.scrub()))
        self.checkpoint("stale-rebuild",
                        _outcome(lambda: array.rebuild_member(1)))
        self.checkpoint("stale-rebuild-scrub", _report(array.scrub()))
        self.settle(9)

        # Incremental scrub: partial progress, wrap, an over-long step.
        self.lse(0, 1)
        results = []
        for units in (3, 3, 1, array.scrub_units, 2, 10 ** 6):
            report = array.scrub_step(units)
            results.append([_report(report), array.scrub_cursor,
                            array.scrub_passes])
        results.append(_outcome(lambda: array.scrub_step(0)))
        self.checkpoint("scrub-steps", results)
        self.clear_faults()

        # Snapshot under suspect + stale state, move on, restore: the
        # cursor, counters and dirty delta reset, the sets come back.
        m, mb = locate(30)
        self.write_fault(m, mb)
        array.write_block(30, _payload(30, 11))
        self.clear_faults()
        array.fail_member(self.n - 1)
        array.replace_member(self.n - 1)
        array.scrub_step(2)
        snapshot = array.snapshot()
        self.checkpoint("snapshot")
        self.write_all(12, step=3)
        array.rebuild_member(self.n - 1)
        array.scrub_step(1)
        self.checkpoint("moved-on")
        array.restore(snapshot)
        self.checkpoint("restored", [array.snapshot() == snapshot])
        self.checkpoint("restored-reads", self.read_all())
        base = array.base_image
        self.checkpoint("base-image", [
            [_outcome(lambda b=b: base.block(b)) for b in range(NUM_BLOCKS)],
            base.meta is array.base_image.meta])
        array.rebuild_member(self.n - 1)
        self.settle(13)

        # A shared latency observer keeps scrub and rebuild on the
        # per-unit order; it sees every member request.
        seen = []
        array.latency_observer = lambda op, t: seen.append([op, repr(t)])
        self.lse(1, 2)
        results = [_report(array.scrub())]
        array.fail_member(0)
        array.replace_member(0)
        results.append(_outcome(lambda: array.rebuild_member(0)))
        results.append(self.read_all()[::5])
        self.checkpoint("latency-observer", [results, seen])
        array.latency_observer = None
        self.settle(13)

        # The same paths with span tracing on.
        enable_tracing(array.events)
        m, mb = locate(5)
        self.lse(m, mb)
        results = [_outcome(lambda: array.read_block(5))]
        for other in range(self.n):
            self.lse(other, mb)
        if array.kind == "rdp":
            self.lse(m, mb + 1 if mb % array.rows == 0 else mb - 1)
        results.append(_outcome(lambda: array.read_block(5)))
        array.fail_member(0)
        array.replace_member(0)
        results.append(_outcome(lambda: array.rebuild_member(0)))
        self.clear_faults()
        results.append(_outcome(lambda: array.rebuild_member(0)))
        self.checkpoint("traced", results)
        self.settle(13)

        # Past what the geometry tolerates: reads and writes raise, the
        # rebuild comes up short, a revived member is trusted again.
        tolerated = {"mirror2": 1, "mirror3": 2, "parity4": 1, "rdp5": 2}
        down = list(range(tolerated[self.label] + 1))
        for victim in down:
            array.fail_member(victim)
        self.checkpoint("exhausted-read", self.read_all())
        self.checkpoint("exhausted-write", self.write_all(14, step=2))
        self.checkpoint("exhausted-scrub", _report(array.scrub(0, 2)))
        array.replace_member(down[0])
        self.checkpoint("exhausted-rebuild",
                        _outcome(lambda: array.rebuild_member(down[0])))
        for victim in down[1:]:
            array.revive_member(victim)
        self.checkpoint("revived-read", self.read_all())
        self.checkpoint("revived-scrub", _report(array.scrub()))
        return self.phases


PINNED = {
    "mirror2": [
        ("fill", "ae4b813abb6c250f"),
        ("read", "bd32abca419ca63d"),
        ("stall", "501afd8b7230b554"),
        ("lse-read-repair", "5ea575911d1a7fa2"),
        ("lse-repair-fails", "f05aecf69c878c1b"),
        ("suspect-healed", "c491f47c03ddbeb4"),
        ("stripe-lses-9", "12ef8441211de4ce"),
        ("stripe-lses-27", "64b6305c4ff13df2"),
        ("settled-1", "2d283637635993c4"),
        ("write-fault", "9e388f9cbd4ef412"),
        ("write-fault-healed", "21b8deada436affc"),
        ("redundancy-write-fault", "0988b6f192a18ad0"),
        ("all-write-fault", "f6f30abe81762716"),
        ("fail0-read", "82f01de1e8594b5f"),
        ("fail0-write", "96b1e8c95d75fe64"),
        ("fail0-replaced", "91e407493c2e8314"),
        ("fail0-rebuilt", "c5896a9487208add"),
        ("fail0-verify", "f9005b79d9bee739"),
        ("fail1-read", "4ba2d8d964e6d6d0"),
        ("fail1-write", "08beff6a6150c86e"),
        ("fail1-replaced", "d25bdc964ea5d6c2"),
        ("fail1-rebuilt", "9e07027de459dbc9"),
        ("fail1-verify", "5e514e1ea59f3b29"),
        ("rebuild-window", "c91723e24897eab1"),
        ("rebuild-window-reads", "ddc4350d5aa0312c"),
        ("rebuild-window-scrub", "5f25804358e6740d"),
        ("corrupt-0-scrub", "e4717a429dc0fbd4"),
        ("corrupt-0-rescrub", "46e1148d6d5d1235"),
        ("corrupt-1-scrub", "6812885112c709e7"),
        ("corrupt-1-rescrub", "d0674b32dd1e995b"),
        ("scrub-lse", "e828bf15733f6ed6"),
        ("scrub-lse-write-fault", "b33c70e0cd6e0d07"),
        ("scrub-after-suspect", "9f4da5eff087423c"),
        ("suspect-reads", "342fce1abeb514c3"),
        ("scrub-two-lses", "05bcccd325291ab8"),
        ("scrub-all-lses", "4149afc404d05333"),
        ("scrub-corrupt-write-fault", "8b3911e6d669e2a6"),
        ("scrub-failed-member", "d82516b183e43360"),
        ("scrub-stale-member", "424f4946055160c7"),
        ("stale-rebuild", "c2c200aa003698a7"),
        ("stale-rebuild-scrub", "ca7b9f3f9dfb3328"),
        ("scrub-steps", "43741b571723b7ae"),
        ("snapshot", "f38b596ccaa40bc0"),
        ("moved-on", "b3aedeb338a3b2d8"),
        ("restored", "078978a62f584b51"),
        ("restored-reads", "94d8e24f6a3b5a1a"),
        ("base-image", "97492dfb25960e3b"),
        ("latency-observer", "dfa439aef742a770"),
        ("traced", "41855245e24899d4"),
        ("exhausted-read", "8dfb82790632296e"),
        ("exhausted-write", "0311cfa6211ad5d7"),
        ("exhausted-scrub", "a28de5ef78734fe6"),
        ("exhausted-rebuild", "71b25f93d1ef14e1"),
        ("revived-read", "e5d19294acea3521"),
        ("revived-scrub", "b982bc3f9e161fd0"),
    ],
    "mirror3": [
        ("fill", "a12b727c1f56d9fe"),
        ("read", "76c38d28780fd287"),
        ("stall", "1cecbc94071566e5"),
        ("lse-read-repair", "a4cd57e546d950c1"),
        ("lse-repair-fails", "9243080a4ff18cf7"),
        ("suspect-healed", "c237937cb47b2af2"),
        ("stripe-lses-9", "1778f067efcba67f"),
        ("stripe-lses-27", "4a19e2df254690ce"),
        ("settled-1", "bbb526d7c7879b1e"),
        ("write-fault", "5b6b292641eaca81"),
        ("write-fault-healed", "71076245a83532b2"),
        ("redundancy-write-fault", "7ca8980dea7df105"),
        ("all-write-fault", "4606893ae5915863"),
        ("fail0-read", "360af720a838ea87"),
        ("fail0-write", "56f71ae4c541c704"),
        ("fail0-replaced", "0ba3937aa8559f08"),
        ("fail0-rebuilt", "1fadc6e05758b5c1"),
        ("fail0-verify", "982289d47a877080"),
        ("fail2-read", "b6c9812c96520e6e"),
        ("fail2-write", "2131f1657fd1465b"),
        ("fail2-replaced", "3c8a38d84b8aa69e"),
        ("fail2-rebuilt", "6e7bc5290d78ff6a"),
        ("fail2-verify", "e52acd356ea02ae5"),
        ("fail01-read", "224f15ed139b138e"),
        ("fail01-write", "36890f3805afeaa2"),
        ("fail01-replaced", "7a0e0e841c843140"),
        ("fail01-rebuilt", "564867b24508853f"),
        ("fail01-verify", "3847a069f22d1c07"),
        ("rebuild-window", "d74f49b41418398a"),
        ("rebuild-window-reads", "ab41545afd8289a8"),
        ("rebuild-window-scrub", "745b7c57858d6fb5"),
        ("corrupt-0-scrub", "8bf288cfa254fef6"),
        ("corrupt-0-rescrub", "826c734a71858e7c"),
        ("corrupt-1-scrub", "2524658ad897f474"),
        ("corrupt-1-rescrub", "9170dffc7e4c9d2e"),
        ("corrupt-2-scrub", "c4862c6ef90fc360"),
        ("corrupt-2-rescrub", "b7d21b329905e2c4"),
        ("scrub-lse", "ce7c748d9e7fb4f8"),
        ("scrub-lse-write-fault", "fa303a4446a901cf"),
        ("scrub-after-suspect", "406d8ab592f842b3"),
        ("suspect-reads", "eb9af91e0ebda247"),
        ("scrub-two-lses", "d35124e8356869ff"),
        ("scrub-all-lses", "8ba0ec260a33cf8e"),
        ("scrub-corrupt-write-fault", "f15b259727274cb8"),
        ("scrub-failed-member", "a7b14ca3365bf547"),
        ("scrub-stale-member", "4a4af0c8d2d47f76"),
        ("stale-rebuild", "73d0523f57947704"),
        ("stale-rebuild-scrub", "0992a19279a1f60a"),
        ("scrub-steps", "bd4d69657db73c09"),
        ("snapshot", "b31e6e7632f45e25"),
        ("moved-on", "446400c3fe3c4a52"),
        ("restored", "c2101636200b5375"),
        ("restored-reads", "cfe9e94cf88ae211"),
        ("base-image", "fd0b52164699647e"),
        ("latency-observer", "e3080bf554c5c2af"),
        ("traced", "72e27fd21c024325"),
        ("exhausted-read", "c19bc5aee7157d2a"),
        ("exhausted-write", "820aca1c74f4b9f8"),
        ("exhausted-scrub", "1ea40c78acb24c74"),
        ("exhausted-rebuild", "77f091830b802f9e"),
        ("revived-read", "bce4e15a83498b6b"),
        ("revived-scrub", "a38f41ffea356ebd"),
    ],
    "parity4": [
        ("fill", "ab2ef5bd0094ccda"),
        ("read", "596778b80fd08881"),
        ("stall", "7b8d1f16abc12cc4"),
        ("lse-read-repair", "55cfc11d11f18970"),
        ("lse-repair-fails", "3c013a9064eae5d7"),
        ("suspect-healed", "500549d7525c102d"),
        ("stripe-lses-9", "56e372b71c3720f4"),
        ("stripe-lses-27", "c8af0e7175408671"),
        ("settled-1", "a7087e2a6610b385"),
        ("write-fault", "1f214375a8ef80e9"),
        ("write-fault-healed", "b7d278ce675dd0c2"),
        ("redundancy-write-fault", "b8c87128ae52df8d"),
        ("all-write-fault", "48d20a5998d4b4ec"),
        ("data-and-parity-suspect", "ce879608b8e2c8c5"),
        ("parity-unmaintained", "4df6d314649c2af2"),
        ("fail0-read", "3531b186261b092d"),
        ("fail0-write", "4af9d534eeb78f11"),
        ("fail0-replaced", "2c68f894343dfd42"),
        ("fail0-rebuilt", "677733995b151ca3"),
        ("fail0-verify", "05d2d73157018318"),
        ("fail3-read", "245c5cebc0eb431c"),
        ("fail3-write", "e7e300b16661bfa2"),
        ("fail3-replaced", "e036e1336503a364"),
        ("fail3-rebuilt", "e1e1dcf8c901bbf2"),
        ("fail3-verify", "24da73588afdf1fd"),
        ("rebuild-window", "daec3a6753f37f1c"),
        ("rebuild-window-reads", "89c104b99625b149"),
        ("rebuild-window-scrub", "593825e7e21bf7e4"),
        ("corrupt-0-scrub", "ecf463e3619719fe"),
        ("corrupt-0-rescrub", "3a8e75c97a4e1da7"),
        ("corrupt-1-scrub", "b0a145cd5d679034"),
        ("corrupt-1-rescrub", "1c217dbcbb479c68"),
        ("corrupt-2-scrub", "090cbaf29d3ecc02"),
        ("corrupt-2-rescrub", "afab13113173445b"),
        ("scrub-lse", "567a32157ff3e2c2"),
        ("scrub-lse-write-fault", "9ef98874680f330c"),
        ("scrub-after-suspect", "aa25b2efe697dabe"),
        ("suspect-reads", "811a76dc23661dca"),
        ("scrub-two-lses", "76a7c3e0a8ee73e7"),
        ("scrub-all-lses", "9ae0ce569664c6ac"),
        ("scrub-corrupt-write-fault", "2c28c10a9bdd553d"),
        ("scrub-failed-member", "88b25bd8665dc335"),
        ("scrub-stale-member", "200d2fdcb2104017"),
        ("stale-rebuild", "5f90c6ef0d68f1ae"),
        ("stale-rebuild-scrub", "c85c1fa45ac78103"),
        ("scrub-steps", "15d78eafc4f8f78f"),
        ("snapshot", "ba10307e8d8678b3"),
        ("moved-on", "cdf0203879866748"),
        ("restored", "18e5260b335cb73a"),
        ("restored-reads", "608ca2753d7ebeed"),
        ("base-image", "820e304e13c1165d"),
        ("latency-observer", "cf31afcd92384f98"),
        ("traced", "d303fb25e9f1b15f"),
        ("exhausted-read", "c92ea6de332a26bf"),
        ("exhausted-write", "f0dcabbda0d48b9d"),
        ("exhausted-scrub", "110a86a2a1d723d0"),
        ("exhausted-rebuild", "9ea228df4197e08f"),
        ("revived-read", "8d85f6cace34c30c"),
        ("revived-scrub", "7c6c12989c28bd47"),
    ],
    "rdp5": [
        ("fill", "03fb7124c177b15b"),
        ("read", "bd5412f4eb19d58a"),
        ("stall", "37bb97582a4f57c0"),
        ("lse-read-repair", "1b99a7f6052780a2"),
        ("lse-repair-fails", "26fd35164a55cc00"),
        ("suspect-healed", "b1392ff21b98bc10"),
        ("stripe-lses-9", "dfa5f6c5ce000565"),
        ("stripe-lses-27", "6ecce6fc14ea28de"),
        ("settled-1", "08718503ce1246d4"),
        ("write-fault", "3be5162b3a942caa"),
        ("write-fault-healed", "cdf47cc0f6585691"),
        ("redundancy-write-fault", "caf1bd7239941483"),
        ("all-write-fault", "769fb1752f27531b"),
        ("fail1-read", "1ccda2d91e4fca84"),
        ("fail1-write", "befefd57e7e9c800"),
        ("fail1-replaced", "930ba2c069523517"),
        ("fail1-rebuilt", "77f16dceca014d71"),
        ("fail1-verify", "1de00169161d802f"),
        ("fail4-read", "07522f0386bb8769"),
        ("fail4-write", "7f8390c6b356dab4"),
        ("fail4-replaced", "1e6e9c85ba2bd22e"),
        ("fail4-rebuilt", "b466c8d4bbff791b"),
        ("fail4-verify", "110bb719f62896eb"),
        ("fail5-read", "174009a7f1cf15f9"),
        ("fail5-write", "2f5f48a3df146fb0"),
        ("fail5-replaced", "d169384354cd149c"),
        ("fail5-rebuilt", "56454ddcd944f29a"),
        ("fail5-verify", "bf8865d6be26abad"),
        ("fail02-read", "cec7a2e7b2350b88"),
        ("fail02-write", "72103c191b965b28"),
        ("fail02-replaced", "67996ddd37c5829a"),
        ("fail02-rebuilt", "a4426852f05a2890"),
        ("fail02-verify", "90d7f25caeff226c"),
        ("fail15-read", "63566698cd350f68"),
        ("fail15-write", "56e92102661f0875"),
        ("fail15-replaced", "76746dcfe63939d0"),
        ("fail15-rebuilt", "ce9e262523980e0a"),
        ("fail15-verify", "7dceb77f3e7fe3d0"),
        ("rebuild-window", "c6bfbb460c23d2d8"),
        ("rebuild-window-reads", "79baae495813acd3"),
        ("rebuild-window-scrub", "62d161227717c523"),
        ("corrupt-0-scrub", "3dae4da3a068ad4d"),
        ("corrupt-0-rescrub", "695edf71e2b5c62d"),
        ("corrupt-1-scrub", "9c19fa5cd263f649"),
        ("corrupt-1-rescrub", "103771b101e7802c"),
        ("corrupt-2-scrub", "9a0af73d8e3b27f3"),
        ("corrupt-2-rescrub", "2208a5a6aaadb98d"),
        ("corrupt-3-scrub", "6d9891b3ab340ebe"),
        ("corrupt-3-rescrub", "557ce64b4bc50395"),
        ("corrupt-4-scrub", "404a6c25f8ad98d2"),
        ("corrupt-4-rescrub", "c4236ca004eee97c"),
        ("corrupt-5-scrub", "3ef620da0f285fc0"),
        ("corrupt-5-rescrub", "6b4acba57d5915e5"),
        ("scrub-lse", "8b21ed40790a397a"),
        ("scrub-lse-write-fault", "86cf5800df5e8e48"),
        ("scrub-after-suspect", "84988bd11ffea766"),
        ("suspect-reads", "0ce8f074a03c4dea"),
        ("scrub-two-lses", "9eac2af0036c7b38"),
        ("scrub-all-lses", "741452b1ea094cc3"),
        ("scrub-corrupt-write-fault", "392abde0feee6f37"),
        ("scrub-failed-member", "757cb7a1c87eb88b"),
        ("scrub-stale-member", "7bd625c2ef420a4f"),
        ("stale-rebuild", "6784c2ebf7d2190f"),
        ("stale-rebuild-scrub", "c797b087ea77ae23"),
        ("scrub-steps", "fa7241719cdbaf4c"),
        ("snapshot", "724ff4dc2d54c9ef"),
        ("moved-on", "b4f3fce7d3db6847"),
        ("restored", "42a26c5ceea89bf8"),
        ("restored-reads", "4cb9638684251eee"),
        ("base-image", "5c73e39f6c7fa126"),
        ("latency-observer", "69e8d32c4a88dfd9"),
        ("traced", "9bedac6afba0e361"),
        ("exhausted-read", "7fd4428d9fdb8371"),
        ("exhausted-write", "0d6838031ae5a158"),
        ("exhausted-scrub", "9d5c0547336864ee"),
        ("exhausted-rebuild", "c687f63489d2d934"),
        ("revived-read", "25ccd4fb0bb71d1a"),
        ("revived-scrub", "bca35b5cfdb887a2"),
    ],
}


@pytest.mark.parametrize("label", list(GEOMETRIES))
def test_array_streams_are_pinned(label, monkeypatch):
    assert _Script(label, MemberRequests(monkeypatch)).run() == PINNED[label]
