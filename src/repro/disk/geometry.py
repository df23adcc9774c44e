"""Disk geometry and the virtual-time performance model.

Table 6's overheads are *relative* run times; what drives them is extra
I/O traffic (replica/checksum/parity writes) and ordering stalls
(waiting for journal data before issuing the commit block).  The model
below charges every request a seek component proportional to the
logical distance travelled, an average rotational delay on
non-sequential access, and a transfer time.  It is deliberately simple
— the paper's testbed disk (WDC WD1200BB, 7200 RPM) sets the default
constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import DEFAULT_BLOCK_SIZE, MB, MS


@dataclass(frozen=True)
class DiskGeometry:
    """Shape and timing parameters of a simulated drive."""

    num_blocks: int
    block_size: int = DEFAULT_BLOCK_SIZE

    #: Fixed cost to start any seek (settle time), seconds.
    seek_base_s: float = 1.0 * MS
    #: Full-stroke seek cost, seconds; actual seeks scale with the square
    #: root of fractional distance (a standard seek-curve approximation).
    seek_full_s: float = 8.0 * MS
    #: Rotational period (7200 RPM -> 8.33 ms); average wait is half.
    rotation_s: float = 8.33 * MS
    #: Sustained media transfer rate, bytes/second.
    transfer_bps: float = 40.0 * MB
    #: Fraction of the average rotational delay charged to writes.
    #: Commodity drives run write-back caching and command queuing, so
    #: queued writes overlap most of the rotational wait; reads cannot.
    #: (The paper notes ATA write-back caching as a fact of life, §2.2.)
    write_rot_factor: float = 0.5
    #: Forward skips up to this many blocks stay on-track: the head just
    #: lets the gap pass underneath (no settle, no rotational miss).
    near_skip_blocks: int = 8

    def __post_init__(self) -> None:
        if self.num_blocks <= 0:
            raise ValueError("disk must have at least one block")
        if self.block_size <= 0 or self.block_size % 512:
            raise ValueError("block size must be a positive multiple of 512")
        # Every request moves one block, so everything but the seek
        # curve is a constant of the geometry, worked out here once.
        # They are plain attributes, not fields: equality, hash, repr
        # and ``dataclasses.replace`` do not see them.
        transfer = self.block_size / self.transfer_bps
        half_rotation = self.rotation_s / 2.0
        constants = {
            # Moving one block under the head.
            "transfer_s": transfer,
            # Service time of an on-track request, by forward gap
            # 0..near_skip_blocks: free positioning for sequential or
            # repeat access, a pass-over wait for a short skip, and no
            # rotational miss either way.
            "_near_s": tuple(
                gap * self.block_size / self.transfer_bps + transfer
                if gap > 1 else transfer
                for gap in range(self.near_skip_blocks + 1)),
            # The average rotational miss off-track: half a turn, of
            # which queued writes overlap all but write_rot_factor.
            "_miss_read_s": half_rotation,
            "_miss_write_s": half_rotation * self.write_rot_factor,
            # The seek curve's full stroke, in blocks.
            "_seek_span": max(self.num_blocks - 1, 1),
        }
        for name, value in constants.items():
            object.__setattr__(self, name, value)

    def service_time(self, gap: int, is_write: bool = False) -> float:
        """Seconds to serve one block request *gap* blocks past the
        head: the one timing model, run once per simulated I/O.

        Off-track it is seek + rotational miss + transfer, summed in
        that order; the seek grows with the square root of the
        fractional distance (the usual concave seek curve).
        """
        near = self._near_s
        if 0 <= gap < len(near):
            return near[gap]
        distance = abs(gap) / self._seek_span
        return (self.seek_base_s + self.seek_full_s * distance ** 0.5
                + (self._miss_write_s if is_write else self._miss_read_s)
                + self.transfer_s)
