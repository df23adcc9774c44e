"""Property-based checks for the copy-on-write slab substrate.

Hypothesis drives random op sequences against :class:`SimulatedDisk`
and cross-checks every observable against a plain dict model and the
pre-slab :class:`LegacyListDisk` reference implementation.  The slab's
aliasing tricks (O(1) snapshot/restore, shared base images, privatizing
deltas) must be invisible at the block-device surface.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from legacy_disk import make_legacy_disk
from repro.disk.disk import SlabImage, make_disk

NUM_BLOCKS = 16
BS = 512


def _payload(seed: int) -> bytes:
    return bytes((seed + i) & 0xFF for i in range(BS))


# One op: (kind, block, payload-seed).
_ops = st.lists(
    st.tuples(
        st.sampled_from(["write", "poke", "read", "snapshot", "restore"]),
        st.integers(min_value=0, max_value=NUM_BLOCKS - 1),
        st.integers(min_value=0, max_value=255),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(_ops)
def test_slab_matches_dict_model(ops):
    """Reads always reflect the most recent write/poke/restore."""
    disk = make_disk(NUM_BLOCKS, BS)
    model = {}
    snapshots = []  # (image, model-copy)
    for kind, block, seed in ops:
        if kind == "write":
            disk.write_block(block, _payload(seed))
            model[block] = _payload(seed)
        elif kind == "poke":
            disk.poke(block, _payload(seed))
            model[block] = _payload(seed)
        elif kind == "read":
            expected = model.get(block, b"\x00" * BS)
            assert disk.read_block(block) == expected
            assert disk.peek(block) == expected
            assert bytes(disk.peek_view(block)) == expected
        elif kind == "snapshot":
            snapshots.append((disk.snapshot(), dict(model)))
        elif kind == "restore" and snapshots:
            image, saved = snapshots[seed % len(snapshots)]
            disk.restore(image)
            model = dict(saved)
    for block in range(NUM_BLOCKS):
        assert disk.peek(block) == model.get(block, b"\x00" * BS)


@settings(max_examples=60, deadline=None)
@given(_ops)
def test_snapshot_immune_to_later_writes(ops):
    """A snapshot never changes, no matter what the device does next."""
    disk = make_disk(NUM_BLOCKS, BS)
    for kind, block, seed in ops:
        if kind in ("write", "poke"):
            disk.write_block(block, _payload(seed))
    image = disk.snapshot()
    frozen = [image.block(i) for i in range(NUM_BLOCKS)]
    for kind, block, seed in reversed(ops):
        if kind in ("write", "poke"):
            disk.write_block(block, _payload(seed ^ 0xFF))
    assert [image.block(i) for i in range(NUM_BLOCKS)] == frozen
    disk.restore(image)
    for i in range(NUM_BLOCKS):
        assert disk.peek(i) == (frozen[i] or b"\x00" * BS)


@settings(max_examples=40, deadline=None)
@given(_ops)
def test_slab_agrees_with_legacy_reference(ops):
    """The slab disk and the pre-slab list disk are observationally
    identical: same data, same virtual clock, same stats, same
    snapshot contents."""
    slab = make_disk(NUM_BLOCKS, BS)
    legacy = make_legacy_disk(NUM_BLOCKS, BS)
    slab_snaps, legacy_snaps = [], []
    for kind, block, seed in ops:
        if kind == "write":
            slab.write_block(block, _payload(seed))
            legacy.write_block(block, _payload(seed))
        elif kind == "poke":
            slab.poke(block, _payload(seed))
            legacy.poke(block, _payload(seed))
        elif kind == "read":
            assert slab.read_block(block) == legacy.read_block(block)
        elif kind == "snapshot":
            slab_snaps.append(slab.snapshot())
            legacy_snaps.append(legacy.snapshot())
        elif kind == "restore" and slab_snaps:
            i = seed % len(slab_snaps)
            slab.restore(slab_snaps[i])
            legacy.restore(legacy_snaps[i])
        assert slab.clock == legacy.clock
        assert slab.stats == legacy.stats
    for i in range(NUM_BLOCKS):
        assert slab.peek(i) == legacy.peek(i)
    # Snapshots agree block by block with the legacy lists.
    for s_img, l_img in zip(slab_snaps, legacy_snaps):
        assert [s_img.block(i) for i in range(NUM_BLOCKS)] == l_img


def test_clean_snapshot_is_o1_aliasing():
    """Snapshotting a clean (just-restored) device returns the base
    image itself: no per-block copying, no new allocation."""
    disk = make_disk(NUM_BLOCKS, BS)
    disk.write_block(3, _payload(7))
    image = disk.snapshot()
    disk.restore(image)
    again = disk.snapshot()
    assert again is image  # identity, not just equality
    # Repeated clean snapshots stay O(1) and allocate nothing new.
    assert disk.snapshot() is image
    assert disk.dirty_count == 0
    # The materialization cache did not grow: snapshot() touched no
    # per-block state.
    assert set(image._blocks) <= {3}


def test_restore_is_o1_aliasing():
    """Restore installs the image as the shared base without copying;
    only subsequently-written blocks are privatized."""
    disk = make_disk(NUM_BLOCKS, BS)
    for b in range(NUM_BLOCKS):
        disk.write_block(b, _payload(b))
    image = disk.snapshot()
    disk.restore(image)
    assert disk.base_image is image
    assert disk.dirty_count == 0
    disk.write_block(5, _payload(99))
    assert disk.dirty_count == 1
    assert disk.any_dirty_in([5])
    assert not disk.any_dirty_in([0, 1, 2])
    # The image is untouched by the post-restore write.
    assert image.block(5) == _payload(5)


def test_slab_image_pickles_by_value():
    import pickle

    disk = make_disk(NUM_BLOCKS, BS)
    disk.write_block(0, _payload(1))
    image = disk.snapshot()
    clone = pickle.loads(pickle.dumps(image))
    assert isinstance(clone, SlabImage)
    assert clone == image
    assert clone.block(0) == _payload(1)
