"""The array I/O fast paths against the forms they replaced.

Each test keeps the old computation as its reference and holds the new
one to it exactly: the one-pass parity update against chained ``xor``,
``RDPStripe.cell`` against a full ``reconstruct``, the lazily trimmed
``EventLog`` ring against a log that trims on every emit, and the
precomputed disk service time against the ``access_time`` formula it
folded in (float ``==``, not ``approx``: virtual time must be
bit-identical).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.xor import xor, xor_update
from repro.disk.geometry import DiskGeometry
from repro.obs.events import EventLog, IOEvent, LogEvent, Severity
from repro.redundancy.rdp import RDPStripe


# -- xor_update ------------------------------------------------------------------


class TestXorUpdate:
    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from([1, 8, 512, 4096]), targets=st.integers(0, 4),
           seed=st.integers(0, 2**32))
    def test_matches_chained_xor(self, size, targets, seed):
        rng = random.Random(seed)
        old, new = rng.randbytes(size), rng.randbytes(size)
        parities = [rng.randbytes(size) for _ in range(targets)]
        assert xor_update(parities, old, new) == [
            xor(xor(parity, old), new) for parity in parities]

    def test_unequal_lengths_raise(self):
        with pytest.raises(ValueError):
            xor_update([b"ab"], b"ab", b"abc")
        with pytest.raises(ValueError):
            xor_update([b"abc"], b"ab", b"cd")


# -- RDPStripe.cell ----------------------------------------------------------------


class TestRDPCell:
    @settings(max_examples=25, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), seed=st.integers(0, 2**32),
           consistent=st.booleans())
    def test_equals_reconstruct_for_every_erasure_set(self, p, seed, consistent):
        rng = random.Random(seed)
        stripe = RDPStripe(p, 16)
        data = [[rng.randbytes(16) for _ in range(stripe.rows)]
                for _ in range(stripe.data_columns)]
        full = stripe.encode(data)
        if not consistent:
            # A damaged cell: the single-erasure rows and the chain
            # must still agree with reconstruct, cell for cell.
            full[rng.randrange(p + 1)][rng.randrange(stripe.rows)] = rng.randbytes(16)
        for size in (0, 1, 2):
            for erased in itertools.combinations(range(p + 1), size):
                columns = [None if c in erased else full[c] for c in range(p + 1)]
                try:
                    whole = stripe.reconstruct(columns)
                except ValueError:
                    for col in range(p + 1):
                        with pytest.raises(ValueError):
                            stripe.cell(columns, col, 0)
                    continue
                for col in range(p + 1):
                    for row in range(stripe.rows):
                        assert stripe.cell(columns, col, row) == whole[col][row]

    @pytest.mark.parametrize("p", [3, 5])
    def test_three_erasures_raise_in_both(self, p):
        stripe = RDPStripe(p, 16)
        full = stripe.encode([[bytes(16)] * stripe.rows] * stripe.data_columns)
        for erased in itertools.combinations(range(p + 1), 3):
            columns = [None if c in erased else full[c] for c in range(p + 1)]
            with pytest.raises(ValueError):
                stripe.reconstruct(columns)
            with pytest.raises(ValueError):
                stripe.cell(columns, erased[0], 0)

    def test_single_row_erasure_does_not_reconstruct(self, monkeypatch):
        stripe = RDPStripe(5, 16)
        full = stripe.encode([[bytes([c * 7 + r]) * 16 for r in range(4)]
                              for c in range(4)])

        def forbidden(columns):
            raise AssertionError("one row XOR should have served this cell")

        monkeypatch.setattr(stripe, "reconstruct", forbidden)
        for erased in ((2,), (4,), (2, 5)):
            columns = [None if c in erased else full[c] for c in range(6)]
            assert stripe.cell(columns, erased[0], 3) == full[erased[0]][3]


# -- the lazily trimmed ring ------------------------------------------------------


class EagerLog:
    """The ring as it was: trimmed to capacity on every emit."""

    def __init__(self, max_events=None):
        self.events = []
        self.max_events = max_events
        self.high_water = 0
        self.dropped = 0

    def emit(self, event):
        self.events.append(event)
        self._trim()

    def emit_many(self, events):
        self.events.extend(events)
        self._trim()

    def _trim(self):
        if self.max_events is not None and len(self.events) > self.max_events:
            excess = len(self.events) - self.max_events
            del self.events[:excess]
            self.dropped += excess
            self.high_water = max(0, self.high_water - excess)

    def consume_new(self):
        new = self.events[self.high_water:]
        self.high_water = len(self.events)
        return new

    def drain(self):
        new = self.events[self.high_water:]
        self.events.clear()
        self.high_water = 0
        return new

    def clear(self):
        self.events.clear()
        self.high_water = self.dropped = 0

    def remove_where(self, predicate):
        events = iter(self.events)
        kept = [e for e in islice(events, self.high_water) if not predicate(e)]
        self.high_water = len(kept)
        kept.extend(e for e in events if not predicate(e))
        self.events[:] = kept

    def digest(self):
        h = hashlib.sha256()
        for e in self.events:
            h.update(repr(e.key()).encode())
        return h.hexdigest()


def _event(i):
    if i % 5 == 4:
        return LogEvent(Severity.INFO, "t", "tag", f"m{i}", i)
    return IOEvent("read" if i % 2 else "write", i, "ok")


def _is_log(event):
    return isinstance(event, LogEvent)


#: One step: a burst of single emits with no read between them (so the
#: ring can pass its capacity untrimmed), then one operation.
_STEPS = st.tuples(
    st.integers(0, 140),
    st.one_of(
        st.tuples(st.just("emit_many"), st.integers(0, 140)),
        st.tuples(st.just("consume_new"), st.none()),
        st.tuples(st.just("drain"), st.none()),
        st.tuples(st.just("remove_where"), st.none()),
        st.tuples(st.just("clear"), st.none()),
        st.tuples(st.just("none"), st.none()),
    ),
)

#: What is compared after every step; the order is drawn, so each read
#: is sometimes the first one to meet an untrimmed ring.
_READS = {
    "len": lambda log: len(log),
    "iter": lambda log: [e.key() for e in log],
    "dropped": lambda log: log.dropped,
    "high_water": lambda log: log.high_water,
    "digest": lambda log: log.digest(),
}
_EAGER_READS = {
    "len": lambda ref: len(ref.events),
    "iter": lambda ref: [e.key() for e in ref.events],
    "dropped": lambda ref: ref.dropped,
    "high_water": lambda ref: ref.high_water,
    "digest": lambda ref: ref.digest(),
}


class TestLazyRing:
    @pytest.mark.parametrize("capacity", [1, 3, 64])
    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(st.tuples(_STEPS, st.permutations(sorted(_READS))),
                          max_size=25))
    def test_matches_eager_trimming(self, capacity, steps):
        log, ref = EventLog(max_events=capacity), EagerLog(capacity)
        counter = itertools.count()
        for (burst, (op, arg)), reads in steps:
            for _ in range(burst):
                event = _event(next(counter))
                assert log.emit(event) is event
                ref.emit(event)
            if op == "emit_many":
                batch = [_event(next(counter)) for _ in range(arg)]
                log.emit_many(batch)
                ref.emit_many(batch)
            elif op in ("consume_new", "drain"):
                got = getattr(log, op)()
                assert [e.key() for e in got] == \
                    [e.key() for e in getattr(ref, op)()]
            elif op == "remove_where":
                log.remove_where(_is_log)
                ref.remove_where(_is_log)
            elif op == "clear":
                log.clear()
                ref.clear()
            for name in reads:
                assert _READS[name](log) == _EAGER_READS[name](ref), (op, name)

    def test_emits_trim_at_twice_the_capacity(self):
        log = EventLog(max_events=4)
        for i in range(7):
            log.emit(_event(i))
        assert len(log._events) == 7  # not yet: no read, below 2 x 4
        log.emit(_event(7))
        assert len(log._events) == 4 and log.dropped == 4

    def test_indexing_and_queries_see_the_trimmed_ring(self):
        log = EventLog(max_events=2)
        log.emit(_event(0))
        log.emit(_event(1))
        log.emit(_event(2))
        assert log[0].block == 1
        log.emit(_event(3))
        log.emit(_event(4))
        assert [e.block for e in log.of_type(LogEvent)] == [4]
        log.emit(_event(5))
        assert [e.block for e in log.io_events()] == [5] and len(log) == 2


# -- the disk service time ----------------------------------------------------------


def _access_time(geo, from_block, to_block, nbytes, is_write=False):
    """``DiskGeometry.access_time`` as it was, kept as the reference."""
    gap = to_block - from_block
    transfer = nbytes / geo.transfer_bps
    if 0 <= gap <= geo.near_skip_blocks:
        if gap > 1:
            return gap * geo.block_size / geo.transfer_bps + transfer
        return transfer
    rot = geo.rotation_s / 2.0
    if is_write:
        rot = rot * geo.write_rot_factor
    distance = abs(gap) / max(geo.num_blocks - 1, 1)
    return (geo.seek_base_s + geo.seek_full_s * distance ** 0.5
            + rot + transfer)


_GEOMETRIES = [
    DiskGeometry(num_blocks=4096, block_size=4096),
    DiskGeometry(num_blocks=1000, block_size=512),
    DiskGeometry(num_blocks=1, block_size=1024),
    DiskGeometry(num_blocks=777, block_size=1024, rotation_s=0.007,
                 transfer_bps=33e6, write_rot_factor=0.3, near_skip_blocks=0),
]


class TestServiceTime:
    @pytest.mark.parametrize("geo", _GEOMETRIES)
    @pytest.mark.parametrize("is_write", [False, True])
    @pytest.mark.parametrize("gap", [-5, 0, 1, 2, 8, 9, 700, -3000])
    def test_equals_the_access_time_formula(self, geo, is_write, gap):
        head = 3100 if gap < 0 else 0
        assert geo.service_time(gap, is_write) == _access_time(
            geo, head, head + gap, geo.block_size, is_write)

    @settings(max_examples=200, deadline=None)
    @given(head=st.integers(0, 4095), to=st.integers(0, 4095),
           is_write=st.booleans())
    def test_equals_the_formula_anywhere_on_the_disk(self, head, to, is_write):
        geo = _GEOMETRIES[0]
        assert geo.service_time(to - head, is_write) == _access_time(
            geo, head, to, geo.block_size, is_write)

    def test_constants_are_not_fields(self):
        geo = _GEOMETRIES[0]
        assert geo == DiskGeometry(num_blocks=4096, block_size=4096)
        assert "transfer_s" not in repr(geo)
