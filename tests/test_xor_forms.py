"""The integer-form table under ``repro.common.xor`` never changes a result.

Hypothesis drives sequences of kernel calls — ``xor``, ``xor_all``,
``xor_update`` and ``RDPStripe`` ``encode`` / ``reconstruct`` / ``cell`` /
``syndromes`` — over operands drawn from one pool: shared ``bytes``
objects (kernel results join the pool, so later calls hit the table),
equal-but-distinct ``bytes`` copies, fresh ``bytes`` that die after the
call (so their ids come back), ``bytearray`` objects that are mutated in
place between calls, and ``memoryview`` objects over them.  Somewhere
mid-stream the table is cleared and its capacity patched down to 2, so
eviction runs on nearly every call.  Every result is held to a plain
``int.from_bytes`` / ``int.to_bytes`` reference, and after every call
the table holds only exact ``bytes``, each under its own id with its
own integer, and no more entries than its capacity.

Hand mutations of ``repro/common/xor.py`` this file catches:

* an equality key (``_forms[block]`` instead of ``_forms[id(block)]``):
  the key/id invariant, and a distinct copy missing from the table;
* a cached ``bytearray`` (the ``type(block) is bytes`` guard dropped):
  a ``bytearray`` mutated after use gives the old XOR, and the table
  holds a non-``bytes`` entry;
* no strong reference (``_forms[id(block)] = value``): a dead block's
  id, reused by a fresh block, serves the dead block's integer;
* eviction that skips a key (the oldest entry left in place, or the
  capacity test off by one): the table outgrows its capacity.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

import repro.common.xor as xor_mod
from repro.common.xor import as_block, as_int, xor, xor_all, xor_update
from repro.redundancy.rdp import RDPStripe

BS = 8
P = 5
ROWS = P - 1


# -- the plain reference ---------------------------------------------------------


def _ref_int(block) -> int:
    return int.from_bytes(bytes(block), "little")


def _ref_xor(*blocks) -> bytes:
    acc = 0
    for block in blocks:
        acc ^= _ref_int(block)
    return acc.to_bytes(len(blocks[0]), "little")


def _ref_encode(data) -> List[List[bytes]]:
    cols = [[bytes(cell) for cell in col] for col in data]
    cols.append([_ref_xor(*(col[r] for col in cols)) for r in range(ROWS)])
    diagonal = []
    for d in range(ROWS):
        on = [cols[c][(d - c) % P] for c in range(P) if (d - c) % P < ROWS]
        diagonal.append(_ref_xor(*on))
    return cols + [diagonal]


def _ref_syndromes(columns):
    rows = [_ref_xor(*(columns[c][r] for c in range(P))) for r in range(ROWS)]
    diags = []
    for d in range(ROWS):
        on = [columns[c][(d - c) % P] for c in range(P) if (d - c) % P < ROWS]
        diags.append(_ref_xor(columns[P][d], *on))
    return (_ref_int(b"".join(rows)), _ref_int(b"".join(diags)))


def _check_table() -> None:
    table = xor_mod._forms
    assert len(table) <= xor_mod.FORMS_CAPACITY
    for key, (block, value) in table.items():
        assert type(block) is bytes
        assert key == id(block)
        assert value == int.from_bytes(block, "little")


# -- the operand pool --------------------------------------------------------------


class Pool:
    """Operands of every kind, addressed by ``(kind, index)``."""

    KINDS = ("shared", "copy", "fresh", "bytearray", "memoryview")

    def __init__(self):
        self.shared = [bytes(BS), bytes(range(1, BS + 1)), b"\xff" * BS]
        self.arrays = [bytearray(b"\x5a" * BS), bytearray(range(BS))]
        self._fresh = itertools.count()

    def get(self, kind: str, i: int):
        if kind == "shared":
            return self.shared[i % len(self.shared)]
        if kind == "copy":   # equal to a shared block, another object
            return bytes(bytearray(self.shared[i % len(self.shared)]))
        if kind == "fresh":  # new contents, dies after the call
            return hashlib.sha256(b"%d" % next(self._fresh)).digest()[:BS]
        array = self.arrays[i % len(self.arrays)]
        return array if kind == "bytearray" else memoryview(array)

    def keep(self, *blocks) -> None:
        """Kernel results become operands, so later calls hit the table."""
        self.shared.extend(blocks)


operand = st.tuples(st.sampled_from(Pool.KINDS), st.integers(0, 63))
stripe_data = st.lists(operand, min_size=ROWS * ROWS, max_size=ROWS * ROWS)
erasures = st.sets(st.integers(0, P), max_size=2)

call = st.one_of(
    st.tuples(st.just("xor"), operand, operand),
    st.tuples(st.just("xor_all"), st.lists(operand, min_size=1, max_size=5)),
    st.tuples(st.just("xor_update"), st.lists(operand, max_size=3),
              operand, operand),
    st.tuples(st.just("mutate"), st.integers(0, 1),
              st.binary(min_size=BS, max_size=BS)),
    st.tuples(st.just("encode"), stripe_data),
    st.tuples(st.just("reconstruct"), stripe_data, erasures),
    st.tuples(st.just("cell"), stripe_data, erasures, st.integers(0, P),
              st.integers(0, ROWS - 1)),
    st.tuples(st.just("syndromes"), stripe_data, operand,
              st.integers(0, (P + 1) * ROWS - 1)),
)


def _present(*blocks) -> None:
    """Each exact ``bytes`` in *blocks* is in the table, as itself."""
    for block in blocks:
        if type(block) is bytes:
            assert xor_mod._forms[id(block)][0] is block


def _run(pool: Pool, stripe: RDPStripe, op, roomy: bool) -> None:
    name = op[0]
    if name == "mutate":
        pool.arrays[op[1]][:] = op[2]
        return
    if name == "xor":
        a, b = pool.get(*op[1]), pool.get(*op[2])
        got = xor(a, b)
        assert got == _ref_xor(a, b)
        if roomy:
            _present(a, b, got)
        pool.keep(got)
        return
    if name == "xor_all":
        blocks = [pool.get(*o) for o in op[1]]
        got = xor_all(blocks)
        assert got == _ref_xor(*blocks)
        if roomy:
            _present(*blocks, got)
        pool.keep(got)
        return
    if name == "xor_update":
        targets = [pool.get(*o) for o in op[1]]
        old, new = pool.get(*op[2]), pool.get(*op[3])
        got = xor_update(targets, old, new)
        assert got == [_ref_xor(t, old, new) for t in targets]
        if roomy:
            _present(old, new, *targets, *got)
        pool.keep(*got)
        return
    cells = [pool.get(*o) for o in op[1]]
    data = [cells[c * ROWS:(c + 1) * ROWS] for c in range(ROWS)]
    want = _ref_encode(data)
    full = stripe.encode(data)
    assert full == want
    pool.keep(*full[ROWS], *full[P])
    if name == "reconstruct":
        columns = [None if c in op[2] else full[c] for c in range(P + 1)]
        assert stripe.reconstruct(columns) == want
    elif name == "cell":
        columns = [None if c in op[2] else full[c] for c in range(P + 1)]
        assert stripe.cell(columns, op[3], op[4]) == want[op[3]][op[4]]
    elif name == "syndromes":
        damaged = [list(col) for col in full]
        col, row = divmod(op[3], ROWS)
        damaged[col][row] = pool.get(*op[2])
        assert stripe.syndromes(damaged) == _ref_syndromes(damaged)
        assert stripe.syndromes(full) == (0, 0)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(call, min_size=1, max_size=30), squeeze_at=st.integers(0, 30))
def test_kernel_sequences_match_the_plain_reference(ops, squeeze_at):
    pool, stripe = Pool(), RDPStripe(P, BS)
    capacity = xor_mod.FORMS_CAPACITY
    xor_mod._forms.clear()
    try:
        for i, op in enumerate(ops):
            if i == squeeze_at % len(ops):
                xor_mod._forms.clear()
                xor_mod.FORMS_CAPACITY = 2
            _run(pool, stripe, op, roomy=xor_mod.FORMS_CAPACITY == capacity)
            _check_table()
    finally:
        xor_mod.FORMS_CAPACITY = capacity
        xor_mod._forms.clear()


# -- the rules one at a time -----------------------------------------------------


def test_a_dead_blocks_id_never_serves_its_integer():
    # Same-sized blocks allocated and freed in turn land at recycled
    # addresses, so a table without its strong reference would answer a
    # new block with a dead one's integer.
    zero = bytes(BS)
    for i in range(512):
        block = bytes(bytearray([i % 251]) * BS)
        assert xor(block, zero) == block
        del block
    _check_table()


def test_a_mutated_bytearray_gives_the_new_xor():
    other = bytes(range(BS))
    array = bytearray(BS)
    assert xor(array, other) == other
    array[:] = b"\x01" * BS
    assert xor(array, other) == _ref_xor(array, other)
    view = memoryview(array)
    assert xor_all([view, other]) == _ref_xor(array, other)
    array[0] ^= 0xFF
    assert xor_all([view, other]) == _ref_xor(array, other)
    assert all(type(block) is bytes for block, _ in xor_mod._forms.values())


def test_a_produced_cell_is_decoded_once():
    a, b = bytes(range(BS)), b"\x33" * BS
    parity = xor(a, b)
    assert as_int(parity) is as_int(parity) is xor_mod._forms[id(parity)][1]
    assert as_block(as_int(parity), BS) == parity


def test_equal_blocks_are_distinct_entries():
    a = bytes(range(BS))
    copy = bytes(bytearray(a))
    assert copy == a and copy is not a
    as_int(a)
    as_int(copy)
    _present(a, copy)
    _check_table()


def test_the_table_stays_within_its_capacity(monkeypatch):
    monkeypatch.setattr(xor_mod, "FORMS_CAPACITY", 3)
    xor_mod._forms.clear()
    kept = [bytes([i]) * BS for i in range(10)]
    for block in kept:
        as_int(block)
        _check_table()
    # The oldest went first: the last three remain.
    assert [block for block, _ in xor_mod._forms.values()] == kept[-3:]
    xor_mod._forms.clear()


@pytest.mark.parametrize("kind", ["bytearray", "memoryview"])
def test_mutable_operands_are_never_stored(kind):
    array = bytearray(b"\x07" * BS)
    block = array if kind == "bytearray" else memoryview(array)
    before = len(xor_mod._forms)
    assert as_int(block) == _ref_int(array)
    assert len(xor_mod._forms) == before
    assert id(block) not in xor_mod._forms
