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

    def seek_time(self, from_block: int, to_block: int) -> float:
        """Seconds to move the head between two logical blocks.

        Sequential access (``to == from + 1``) is free: the head is
        already there.  Otherwise cost grows with sqrt(distance), the
        usual concave seek curve.
        """
        if to_block == from_block + 1 or to_block == from_block:
            return 0.0
        gap = to_block - from_block
        if 0 < gap <= self.near_skip_blocks:
            # Same-track pass-over: wait for the gap to rotate by.
            return self.transfer_time(gap * self.block_size)
        distance = abs(gap) / max(self.num_blocks - 1, 1)
        return self.seek_base_s + self.seek_full_s * distance ** 0.5

    def rotational_delay(self, sequential: bool, is_write: bool = False) -> float:
        """Average rotational wait; sequential requests stream for free,
        and queued writes overlap most of the rotation."""
        if sequential:
            return 0.0
        base = self.rotation_s / 2.0
        return base * self.write_rot_factor if is_write else base

    def transfer_time(self, nbytes: int) -> float:
        return nbytes / self.transfer_bps

    def access_time(self, from_block: int, to_block: int, nbytes: int,
                    is_write: bool = False) -> float:
        """Total service time for one request.

        Flattened composition of :meth:`seek_time`,
        :meth:`rotational_delay` and :meth:`transfer_time` (bit-exact,
        same summation order) — this runs once per simulated I/O and is
        the single hottest call in long fault matrices.
        """
        gap = to_block - from_block
        transfer = nbytes / self.transfer_bps
        if 0 <= gap <= self.near_skip_blocks:
            # On-track: free for sequential/repeat access, a pass-over
            # wait for short forward skips; no rotational miss either way.
            if gap > 1:
                return gap * self.block_size / self.transfer_bps + transfer
            return transfer
        rot = self.rotation_s / 2.0
        if is_write:
            rot = rot * self.write_rot_factor
        distance = abs(gap) / max(self.num_blocks - 1, 1)
        return (self.seek_base_s + self.seek_full_s * distance ** 0.5
                + rot + transfer)
