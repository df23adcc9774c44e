"""Property-based invariants for the redundancy arrays.

The core claim of every geometry is *erasure tolerance*: after any
random write history, killing any ``r`` members (1 for mirror/parity,
any 2 for RDP) must leave every logical block byte-identical through
the reconstruction path.  Hypothesis drives the write histories and
the choice of victims; scrub must likewise heal any single silently
corrupted member block it is allowed to locate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.redundancy import make_array
from repro.common.xor import xor, xor_all

NUM_BLOCKS = 24
BS = 512

GEOMETRY_CONFIGS = [("mirror", 2), ("mirror", 3), ("parity", 4), ("rdp", 5)]


def _xor_reference(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


@st.composite
def write_histories(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    return [
        (draw(st.integers(min_value=0, max_value=NUM_BLOCKS - 1)),
         bytes([draw(st.integers(min_value=0, max_value=255))]) * BS)
        for _ in range(n)
    ]


def _apply(array, history):
    contents = {}
    for block, data in history:
        array.write_block(block, data)
        contents[block] = data
    return contents


class TestErasureTolerance:
    @pytest.mark.parametrize("geometry,members", GEOMETRY_CONFIGS)
    @settings(max_examples=25, deadline=None)
    @given(history=write_histories(), data=st.data())
    def test_any_single_member_loss_is_invisible(
            self, geometry, members, history, data):
        array = make_array(geometry, NUM_BLOCKS, BS, members=members)
        contents = _apply(array, history)
        victim = data.draw(st.integers(
            min_value=0, max_value=len(array.members) - 1))
        array.fail_member(victim)
        for block, expected in sorted(contents.items()):
            assert array.read_block(block) == expected, (victim, block)

    @settings(max_examples=25, deadline=None)
    @given(history=write_histories(), data=st.data())
    def test_rdp_tolerates_any_two_member_losses(self, history, data):
        array = make_array("rdp", NUM_BLOCKS, BS, members=5)
        contents = _apply(array, history)
        n = len(array.members)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        va, vb = data.draw(st.sampled_from(pairs))
        array.fail_member(va)
        array.fail_member(vb)
        for block, expected in sorted(contents.items()):
            assert array.read_block(block) == expected, (va, vb, block)


class TestScrubHeals:
    @pytest.mark.parametrize("geometry,members", [("mirror", 3), ("rdp", 5)])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_scrub_repairs_any_single_silent_corruption(
            self, geometry, members, data):
        array = make_array(geometry, NUM_BLOCKS, BS, members=members)
        for block in range(NUM_BLOCKS):
            array.write_block(block, bytes([(block * 3 + 1) % 256]) * BS)
        block = data.draw(st.integers(min_value=0, max_value=NUM_BLOCKS - 1))
        m, mb = array._locate(block)
        good = array.members[m].disk.peek(mb)
        evil = data.draw(st.binary(min_size=BS, max_size=BS))
        if evil == good:
            return
        array.members[m].disk.poke(mb, evil)
        report = array.scrub()
        assert (m, mb) in report.repaired, (m, mb, report.unrepairable)
        assert array.members[m].disk.peek(mb) == good
        for b in range(NUM_BLOCKS):
            assert array.read_block(b) == bytes([(b * 3 + 1) % 256]) * BS


class TestXor:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=4096), st.data())
    def test_wide_xor_matches_bytewise(self, n, data):
        a = data.draw(st.binary(min_size=n, max_size=n))
        b = data.draw(st.binary(min_size=n, max_size=n))
        assert xor(a, b) == _xor_reference(a, b)

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_xor_identities(self, a):
        zero = bytes(len(a))
        assert xor(a, a) == zero
        assert xor(a, zero) == a

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=1024),
           st.integers(min_value=1, max_value=6), st.data())
    def test_wide_xor_all_matches_bytewise(self, n, count, data):
        blocks = [data.draw(st.binary(min_size=n, max_size=n))
                  for _ in range(count)]
        expected = bytes(n)
        for block in blocks:
            expected = _xor_reference(expected, block)
        assert xor_all(blocks) == expected

    def test_xor_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            xor(b"ab", b"abc")

    @pytest.mark.parametrize("blocks", [
        [bytes(8), bytes(4)],      # once zero-padded to 8 bytes
        [bytes(4), bytes(8)],      # once OverflowError
        [bytes(4), bytes(4), b"x"],
        [],                        # once IndexError
    ], ids=["long-first", "short-first", "short-last", "empty"])
    def test_xor_all_rejects_unequal_or_no_operands(self, blocks):
        with pytest.raises(ValueError):
            xor_all(blocks)
