"""Pin of everything an array does that an observer can see.

One script per geometry drives a small array through every recovery,
write, scrub, rebuild and gray-box path and, after each phase, folds
what is observable into one digest: the array's typed event stream,
every member's private I/O stream, ``DiskStats``, clock and raw image,
the suspect and stale sets, the counters and cursor, the phase's own
results (read payloads, exceptions, scrub report lists) and ``peek`` /
``peek_view`` of every logical block.  ``PINNED`` holds the digests the
script produced at commit 7c46ca4, before the array refactor this file
was written to hold still; a refactor of
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
    def __init__(self, label: str):
        kind, members = GEOMETRIES[label]
        self.label = label
        self.array = make_array(kind, NUM_BLOCKS, BS, members=members)
        self.array.events = EventLog()
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
                "io": member.events.digest(),
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
        ("fill", "af3859c133d28c46"),
        ("read", "128b0d53210d5355"),
        ("stall", "9669ac842916fce8"),
        ("lse-read-repair", "acf2acda755af221"),
        ("lse-repair-fails", "fcd5610061cf5d36"),
        ("suspect-healed", "d2dd54c964278c58"),
        ("stripe-lses-9", "c9ddeb4b20f339ff"),
        ("stripe-lses-27", "5be59cfd1837e7e8"),
        ("settled-1", "7c13ef7b6d5556bb"),
        ("write-fault", "06c33028b8fc9f7e"),
        ("write-fault-healed", "2ecb28738891eb64"),
        ("redundancy-write-fault", "cc176d7c4e58220a"),
        ("all-write-fault", "5c140586317320d8"),
        ("fail0-read", "6f3aa315fd5b2d05"),
        ("fail0-write", "a810a5e5d669f1f7"),
        ("fail0-replaced", "248dff8135e374f6"),
        ("fail0-rebuilt", "dab07110b1102b57"),
        ("fail0-verify", "9473431b0d89a3f9"),
        ("fail1-read", "109f4a3887ab9302"),
        ("fail1-write", "685e38368be71831"),
        ("fail1-replaced", "200d8ba631e1d72d"),
        ("fail1-rebuilt", "3f2cace582f279eb"),
        ("fail1-verify", "93636fcfdaaab6cf"),
        ("rebuild-window", "d84c8dda1f1e8496"),
        ("rebuild-window-reads", "18c2f62c6b72898a"),
        ("rebuild-window-scrub", "8769037ac2f6cc1d"),
        ("corrupt-0-scrub", "35daeb7f180154a0"),
        ("corrupt-0-rescrub", "43f7eccfc7fc4e7b"),
        ("corrupt-1-scrub", "4aac6b29f1248a82"),
        ("corrupt-1-rescrub", "a5e8835498fcb344"),
        ("scrub-lse", "cca6eb59627fe515"),
        ("scrub-lse-write-fault", "924fcff08da479aa"),
        ("scrub-after-suspect", "1a306e411039f0c1"),
        ("suspect-reads", "599694038ae0ec38"),
        ("scrub-two-lses", "0194e1d6e2a4fffc"),
        ("scrub-all-lses", "3fe548a0e0f7462f"),
        ("scrub-corrupt-write-fault", "0baac8473d8ccdd0"),
        ("scrub-failed-member", "ef07fe975474d374"),
        ("scrub-stale-member", "c88d77d0a431b41f"),
        ("stale-rebuild", "a57c6bf0540c02e0"),
        ("stale-rebuild-scrub", "da19fd490b34c119"),
        ("scrub-steps", "73072bddfc3244a7"),
        ("snapshot", "390ad43cdfc862dc"),
        ("moved-on", "ddc0d04a13d30d4f"),
        ("restored", "a5302f1f7c1d5e9c"),
        ("restored-reads", "8244bffd0c8e3ef9"),
        ("base-image", "b805ec907cf68bf9"),
        ("latency-observer", "66e8b46ab8a28a6b"),
        ("traced", "26aa1b2206fbadde"),
        ("exhausted-read", "23dcceb30ec995e5"),
        ("exhausted-write", "bfed021466d839f1"),
        ("exhausted-scrub", "703f8ac5c0b7ccfa"),
        ("exhausted-rebuild", "b9f25add04686bf1"),
        ("revived-read", "c75a3440f544d89f"),
        ("revived-scrub", "601f593819f4d228"),
    ],
    "mirror3": [
        ("fill", "4719240f464f51f3"),
        ("read", "141c06f38ae2b9fe"),
        ("stall", "d43499efbb7ac4f3"),
        ("lse-read-repair", "eb348500e4400142"),
        ("lse-repair-fails", "500a4c3ef0e6efd8"),
        ("suspect-healed", "ddb3d74ff7171adb"),
        ("stripe-lses-9", "0a2e2acde3cd980b"),
        ("stripe-lses-27", "15c770e4b3797aba"),
        ("settled-1", "da8cb4e4e900e5d8"),
        ("write-fault", "d6c4edc87b48b6e3"),
        ("write-fault-healed", "cd4cf5a921a7f388"),
        ("redundancy-write-fault", "a116127246c13e30"),
        ("all-write-fault", "d85ec93ba5f3ee36"),
        ("fail0-read", "f127edc680a8066d"),
        ("fail0-write", "f0fead19b5d3231c"),
        ("fail0-replaced", "225ecb5bd5110b14"),
        ("fail0-rebuilt", "4eec05aac05252e9"),
        ("fail0-verify", "6df7d5fd011aceed"),
        ("fail2-read", "1447e9e254888294"),
        ("fail2-write", "79add150b8f99c20"),
        ("fail2-replaced", "e9571522c2cd4fd9"),
        ("fail2-rebuilt", "5ae7ba77157c76ef"),
        ("fail2-verify", "d9787067302b315f"),
        ("fail01-read", "083a0c409e091a8b"),
        ("fail01-write", "f17862d63eda3647"),
        ("fail01-replaced", "1c4432bad19a6e75"),
        ("fail01-rebuilt", "780a45fee1580c1f"),
        ("fail01-verify", "1e02e6b2aa1ce309"),
        ("rebuild-window", "fa1615a252de1532"),
        ("rebuild-window-reads", "ea781d60d25e7e43"),
        ("rebuild-window-scrub", "3e02fd042af77333"),
        ("corrupt-0-scrub", "ff4b9cb0d3c1c80d"),
        ("corrupt-0-rescrub", "cb74a69123d8c288"),
        ("corrupt-1-scrub", "ebad7e0ed09511f7"),
        ("corrupt-1-rescrub", "c0f95b6c76d1fda3"),
        ("corrupt-2-scrub", "e28698d6f8281d39"),
        ("corrupt-2-rescrub", "e31163c73a0bf051"),
        ("scrub-lse", "f8104feaeaf73cf9"),
        ("scrub-lse-write-fault", "19d81188d8d0ed78"),
        ("scrub-after-suspect", "09a317bdc8b390be"),
        ("suspect-reads", "3ce116809fbf35b4"),
        ("scrub-two-lses", "6d7fc18b1fb375fa"),
        ("scrub-all-lses", "946531cdee99d384"),
        ("scrub-corrupt-write-fault", "211923bce0ad7285"),
        ("scrub-failed-member", "0ee059fd951e294c"),
        ("scrub-stale-member", "1f6e19503ead1b7a"),
        ("stale-rebuild", "81724655d555d582"),
        ("stale-rebuild-scrub", "cef21b3bc864f265"),
        ("scrub-steps", "378c7412fb5381eb"),
        ("snapshot", "98cac384c4613c86"),
        ("moved-on", "f2a83d0c110e40d2"),
        ("restored", "81ade867051c12d1"),
        ("restored-reads", "47411b21ef474ceb"),
        ("base-image", "00fcf85a48a06d76"),
        ("latency-observer", "22d17c102cb48879"),
        ("traced", "74d7ccc1a2e58f47"),
        ("exhausted-read", "cd73555d7ff25ada"),
        ("exhausted-write", "3c0a27d6d93bf467"),
        ("exhausted-scrub", "f9cedbcacaf77f24"),
        ("exhausted-rebuild", "3c30f2d83e648537"),
        ("revived-read", "a6db03885596f571"),
        ("revived-scrub", "4fe9c8869b862889"),
    ],
    "parity4": [
        ("fill", "5df3986f1dcbdcda"),
        ("read", "8e840ff481e40b13"),
        ("stall", "6b25a261f9b26119"),
        ("lse-read-repair", "89f12bbe4a8137f2"),
        ("lse-repair-fails", "50974072c5d1b7e6"),
        ("suspect-healed", "1230f8b0b82640f1"),
        ("stripe-lses-9", "5a4ec358cb736d16"),
        ("stripe-lses-27", "18b4f0e5d3d11183"),
        ("settled-1", "2d274238bc227a88"),
        ("write-fault", "5a24d0d72c347f6a"),
        ("write-fault-healed", "fc4197ab3484fa49"),
        ("redundancy-write-fault", "62914ab515a6d260"),
        ("all-write-fault", "5b6c1265772e11a3"),
        ("data-and-parity-suspect", "0c89c782a6195982"),
        ("parity-unmaintained", "c0f23ae7dcb5d0ca"),
        ("fail0-read", "9791d1d03e6c8c52"),
        ("fail0-write", "0440fb9677a6b1cd"),
        ("fail0-replaced", "a84f797741fa6ae4"),
        ("fail0-rebuilt", "96a905676cfb6ab2"),
        ("fail0-verify", "8ddbcb6f1d14852c"),
        ("fail3-read", "2b2dc74fa6321e70"),
        ("fail3-write", "e7cadbe2f3656d85"),
        ("fail3-replaced", "9b86bdf89491984f"),
        ("fail3-rebuilt", "68cba5780fcc001e"),
        ("fail3-verify", "834bf80011a31332"),
        ("rebuild-window", "ef29c61d58e6be7e"),
        ("rebuild-window-reads", "ffa4b5e0ce4b4482"),
        ("rebuild-window-scrub", "e2a272a5e8d729af"),
        ("corrupt-0-scrub", "673f150e6a20f732"),
        ("corrupt-0-rescrub", "a7ed26f568de99e4"),
        ("corrupt-1-scrub", "8ecc98b11a7f89a0"),
        ("corrupt-1-rescrub", "0360126ad449e6ef"),
        ("corrupt-2-scrub", "e74027fec7dabe1c"),
        ("corrupt-2-rescrub", "fe76508bb23201e3"),
        ("scrub-lse", "6f880555d8c5f4c4"),
        ("scrub-lse-write-fault", "e373670eaba47be2"),
        ("scrub-after-suspect", "b348edbddf173acc"),
        ("suspect-reads", "035891c637bcbb9b"),
        ("scrub-two-lses", "00221efcd0a22fd1"),
        ("scrub-all-lses", "83196a28e16e7cdd"),
        ("scrub-corrupt-write-fault", "56d374b58c482c72"),
        ("scrub-failed-member", "06908bb3bfa7dadb"),
        ("scrub-stale-member", "cae4ed47d7df458a"),
        ("stale-rebuild", "03d9052751d6b622"),
        ("stale-rebuild-scrub", "2551473d32ae32d4"),
        ("scrub-steps", "09866a9a831c1d22"),
        ("snapshot", "7ac2bd73e73226b3"),
        ("moved-on", "06de42138b7fa14e"),
        ("restored", "a0211fbcee9b6445"),
        ("restored-reads", "c586f79b43657492"),
        ("base-image", "6cf536cfc42c33ab"),
        ("latency-observer", "15d1d9034a620c11"),
        ("traced", "f8a057613da00628"),
        ("exhausted-read", "ee2792e8dfd4719f"),
        ("exhausted-write", "2d20a697b998c2b6"),
        ("exhausted-scrub", "cdac618ac5b4ad3b"),
        ("exhausted-rebuild", "1840d5b78625cf41"),
        ("revived-read", "0ee5a09d512a4c68"),
        ("revived-scrub", "5636dad06761cda1"),
    ],
    "rdp5": [
        ("fill", "8a24f594e03f7eb3"),
        ("read", "17e440b325ffee6e"),
        ("stall", "79dd180496f82a66"),
        ("lse-read-repair", "27321dbb31048c01"),
        ("lse-repair-fails", "6c4e40d1e6cc003e"),
        ("suspect-healed", "1ec7477cea6a4a16"),
        ("stripe-lses-9", "c3223e5add046185"),
        ("stripe-lses-27", "02e65f2359b79112"),
        ("settled-1", "892214f0193cdaa2"),
        ("write-fault", "6de4e542ac3bd487"),
        ("write-fault-healed", "07eac690233f6cb1"),
        ("redundancy-write-fault", "b441306fedaf7602"),
        ("all-write-fault", "75471877d31c6067"),
        ("fail1-read", "b868cb64f6530022"),
        ("fail1-write", "311131f1cc9e80b4"),
        ("fail1-replaced", "c3d3dc8518a9630d"),
        ("fail1-rebuilt", "92b0bf259e6618f8"),
        ("fail1-verify", "38434c0854fa48ee"),
        ("fail4-read", "527ef8ae04dc146a"),
        ("fail4-write", "7952232b3695a94f"),
        ("fail4-replaced", "b0143183a152a346"),
        ("fail4-rebuilt", "4742ae4a7da8617d"),
        ("fail4-verify", "bf6212e1a076d10d"),
        ("fail5-read", "a01e1a03b181649b"),
        ("fail5-write", "e2e747ba6d00ad2a"),
        ("fail5-replaced", "f99636e3f101dab7"),
        ("fail5-rebuilt", "23e363b55cf771db"),
        ("fail5-verify", "d54770565a356249"),
        ("fail02-read", "1b4b505653aeed04"),
        ("fail02-write", "115bab4b28f9e809"),
        ("fail02-replaced", "e61a410ac456e560"),
        ("fail02-rebuilt", "67e8042aae3e6f4d"),
        ("fail02-verify", "a5085baa480948b4"),
        ("fail15-read", "d399e0646bb3e00f"),
        ("fail15-write", "52577b8380714647"),
        ("fail15-replaced", "24fe208ef409386a"),
        ("fail15-rebuilt", "ba69c4db95957b1e"),
        ("fail15-verify", "9b8633c7f32453ca"),
        ("rebuild-window", "bb3f21d552436931"),
        ("rebuild-window-reads", "08927f916cc77f7a"),
        ("rebuild-window-scrub", "6f45e92a70093b2d"),
        ("corrupt-0-scrub", "56212867db8a4047"),
        ("corrupt-0-rescrub", "41d4523a42b8f3c0"),
        ("corrupt-1-scrub", "6bcee0526076175e"),
        ("corrupt-1-rescrub", "8eaf61c6c6c34990"),
        ("corrupt-2-scrub", "6ed8e349b3c80368"),
        ("corrupt-2-rescrub", "fe8614d89370ad12"),
        ("corrupt-3-scrub", "0f62d451a2942863"),
        ("corrupt-3-rescrub", "e37eee05e5ca5a32"),
        ("corrupt-4-scrub", "c1f5a138ca9029b0"),
        ("corrupt-4-rescrub", "9c1ed78a83a77df6"),
        ("corrupt-5-scrub", "92d03b8c6f326533"),
        ("corrupt-5-rescrub", "3638053bae4df0f6"),
        ("scrub-lse", "49929ed1de1ac22b"),
        ("scrub-lse-write-fault", "bcf0cd506807478d"),
        ("scrub-after-suspect", "97e095f8bcb9637d"),
        ("suspect-reads", "6206a49e6e28ffd1"),
        ("scrub-two-lses", "7dc9b55cff7d5929"),
        ("scrub-all-lses", "5e961879119980f7"),
        ("scrub-corrupt-write-fault", "41b1165009303a7f"),
        ("scrub-failed-member", "6cbbd0301cf68cf0"),
        ("scrub-stale-member", "44caed96be5fef54"),
        ("stale-rebuild", "ce9568a8ddbaa410"),
        ("stale-rebuild-scrub", "1d813acef2ba4cb7"),
        ("scrub-steps", "43c29db81e013605"),
        ("snapshot", "ce20b9ad19aed9cd"),
        ("moved-on", "85fe91e70eca8ff4"),
        ("restored", "d609b754041e078c"),
        ("restored-reads", "587db98992220333"),
        ("base-image", "f135bea65c5d755d"),
        ("latency-observer", "60ee392e7f777427"),
        ("traced", "823ab5c3c720e69b"),
        ("exhausted-read", "4e8c6baf64fa449d"),
        ("exhausted-write", "f56d8147567aa63c"),
        ("exhausted-scrub", "5f054442285cb5c6"),
        ("exhausted-rebuild", "fc379eca269b35df"),
        ("revived-read", "6f559bf3008fc86c"),
        ("revived-scrub", "975f3079eb07abfa"),
    ],
}


@pytest.mark.parametrize("label", list(GEOMETRIES))
def test_array_streams_are_pinned(label):
    assert _Script(label).run() == PINNED[label]
