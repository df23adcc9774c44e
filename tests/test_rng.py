"""Named-stream RNG derivation (repro.common.rng).

The two load-bearing guarantees: no-name streams are byte-identical to
the legacy ``random.Random(seed)`` convention (committed BENCH digests
depend on it), and named child seeds depend only on (root, name path) —
not on process, creation order, or sibling count — which is what makes
fleet campaigns schedule-independent.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import (
    SEED_BITS, derive_seed, random_bytes, stream,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "lse", 3) == derive_seed(42, "lse", 3)

    def test_pinned_values(self):
        # Frozen: these exact values feed every committed fleet digest.
        # A change here is a silent break of BENCH_fleet.json.
        assert derive_seed(0) == 6912158355717386040
        assert derive_seed(20260807, "fleet", "mirror2", "baseline", 0) == \
            17592897632619435049
        assert derive_seed(42, "lse", 3) == 4533179118843124217

    def test_fits_seed_bits(self):
        for root in (0, 1, 2**64, -7):
            for names in ((), ("a",), ("a", 0), (1, 2, 3)):
                assert 0 <= derive_seed(root, *names) < 2**SEED_BITS

    def test_distinct_names_distinct_seeds(self):
        seeds = {derive_seed(7, proc, member)
                 for proc in ("failstop", "lse", "corrupt")
                 for member in range(8)}
        assert len(seeds) == 24

    def test_name_path_is_not_concatenation(self):
        # ("ab", "c") and ("a", "bc") must differ: names are
        # NUL-separated, not glued.
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")

    def test_independent_of_sibling_creation(self):
        before = derive_seed(99, "trial", 5)
        _ = [derive_seed(99, "trial", i) for i in range(100)]
        assert derive_seed(99, "trial", 5) == before

    def test_int_and_str_names_equivalent(self):
        # Names stringify, so 3 and "3" address the same stream — the
        # convenience trade documented in the module.
        assert derive_seed(5, 3) == derive_seed(5, "3")


class TestStream:
    def test_no_names_is_legacy_random(self):
        # The compatibility contract: converted call sites (workload
        # generators, fault noise) keep their historical byte streams.
        for seed in (0, 1, 1234, 20260807):
            legacy = random.Random(seed)
            named = stream(seed)
            assert [named.random() for _ in range(32)] == \
                [legacy.random() for _ in range(32)]

    def test_named_stream_reproducible(self):
        a = stream(42, "io")
        b = stream(42, "io")
        assert [a.getrandbits(32) for _ in range(16)] == \
            [b.getrandbits(32) for _ in range(16)]

    def test_named_streams_independent(self):
        draws = {name: stream(42, name).getrandbits(64)
                 for name in ("io", "noise", "placement")}
        assert len(set(draws.values())) == 3

    def test_named_differs_from_root(self):
        assert stream(42, "io").getrandbits(64) != \
            random.Random(42).getrandbits(64)


def _per_byte(rng: random.Random, n: int) -> bytes:
    """The form every payload site used to spell out."""
    return bytes(rng.randrange(256) for _ in range(n))


class TestRandomBytes:
    """``random_bytes`` is the per-byte ``randrange(256)`` stream, and
    leaves the generator exactly where that loop leaves it."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64),
           st.integers(min_value=0, max_value=40_000))
    def test_matches_per_byte_stream_and_state(self, seed, n):
        wide, reference = random.Random(seed), random.Random(seed)
        assert random_bytes(wide, n) == _per_byte(reference, n)
        assert wide.getstate() == reference.getstate()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64),
           st.lists(st.tuples(st.sampled_from(["bytes", "randrange", "choice"]),
                              st.integers(min_value=1, max_value=3000)),
                    max_size=12))
    def test_interleaves_with_other_draws(self, seed, steps):
        # PostMark's shape: sizes, op codes and path choices are drawn
        # between payloads from the same generator.
        wide, reference = random.Random(seed), random.Random(seed)
        for kind, n in steps:
            if kind == "bytes":
                assert random_bytes(wide, n) == _per_byte(reference, n)
            elif kind == "randrange":
                assert wide.randrange(n) == reference.randrange(n)
            else:
                assert wide.choice(range(n)) == reference.choice(range(n))
        assert wide.getstate() == reference.getstate()

    def test_small_sizes_every_seed(self):
        for seed in range(64):
            for n in range(20):
                wide, reference = random.Random(seed), random.Random(seed)
                assert random_bytes(wide, n) == _per_byte(reference, n)
                assert wide.getstate() == reference.getstate()
