"""Row-Diagonal Parity: every single and double erasure reconstructs."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.redundancy.rdp import RDPStripe, is_prime


def make_stripe(p, bs=32, seed=7):
    import random
    rng = random.Random(seed)
    stripe = RDPStripe(p, bs)
    data = [[bytes(rng.randrange(256) for _ in range(bs))
             for _ in range(stripe.rows)]
            for _ in range(stripe.data_columns)]
    return stripe, data, stripe.encode(data)


class TestGeometry:
    def test_prime_required(self):
        with pytest.raises(ValueError):
            RDPStripe(4, 32)
        with pytest.raises(ValueError):
            RDPStripe(2, 32)
        RDPStripe(5, 32)

    def test_is_prime(self):
        primes = [n for n in range(2, 30) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_shape(self):
        stripe, data, enc = make_stripe(5)
        assert len(enc) == 6            # p + 1 columns
        assert all(len(col) == 4 for col in enc)  # p - 1 rows

    def test_join_checks_every_cell_size(self):
        stripe = RDPStripe(5, 4096)
        # 16 KB in all, the right total, but two cells in the wrong slots.
        with pytest.raises(ValueError):
            stripe.join([bytes(2048), bytes(6144), bytes(4096), bytes(4096)])
        with pytest.raises(ValueError):
            stripe.join([bytes(4096)] * 3)
        cells = [bytes([r]) * 4096 for r in range(4)]
        assert stripe.split(stripe.join(cells)) == cells

    def test_verify_accepts_and_rejects(self):
        stripe, data, enc = make_stripe(5)
        assert stripe.verify(enc)
        bad = [list(col) for col in enc]
        bad[0][0] = bytes(32)
        assert not stripe.verify(bad)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
class TestErasures:
    def test_every_single_erasure(self, p):
        stripe, data, enc = make_stripe(p)
        for gone in range(p + 1):
            cols = [None if c == gone else enc[c] for c in range(p + 1)]
            rebuilt = stripe.reconstruct(cols)
            assert rebuilt == enc, f"column {gone}"

    def test_every_double_erasure(self, p):
        stripe, data, enc = make_stripe(p)
        for a, b in itertools.combinations(range(p + 1), 2):
            cols = [None if c in (a, b) else enc[c] for c in range(p + 1)]
            rebuilt = stripe.reconstruct(cols)
            assert rebuilt == enc, f"columns {a},{b}"

    def test_triple_erasure_rejected(self, p):
        stripe, data, enc = make_stripe(p)
        cols = [None, None, None] + [enc[c] for c in range(3, p + 1)]
        with pytest.raises(ValueError):
            stripe.reconstruct(cols)

    def test_no_erasure_is_identity(self, p):
        stripe, data, enc = make_stripe(p)
        assert stripe.reconstruct(enc) == enc


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.binary(min_size=16, max_size=16),
       st.integers(0, 2**31))
def test_property_double_erasure_random_stripes(a, b, blk, seed):
    stripe, data, enc = make_stripe(5, bs=16, seed=seed)
    cols = [None if c in (a, b) else enc[c] for c in range(6)]
    assert stripe.reconstruct(cols) == enc

