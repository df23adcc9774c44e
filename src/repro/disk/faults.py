"""The fail-partial fault model (§2.3) as injectable fault specifications.

A :class:`Fault` describes *what* goes wrong: which blocks (by number,
by type, or by predicate), on which operation (read/write), in which way
(block failure vs. corruption), with which persistence (sticky vs.
transient) and locality (a single block or a spatially-local run, as a
media scratch would produce).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.common import rng

#: Memoized noise blocks, keyed by (seed, length).  NOISE corruption is
#: a pure function of the fault's seed and the payload length — the
#: stream is ``random.Random(seed).randrange(256)`` per byte, which
#: ``rng.random_bytes`` reproduces — so the bytes are computed once and
#: reused across every cell that arms the same fault shape.  Seeding
#: routes through ``repro.common.rng`` (the no-name form is the legacy
#: ``random.Random(seed)`` exactly).
_NOISE_CACHE: Dict[Tuple[int, int], bytes] = {}


def _noise(seed: int, n: int) -> bytes:
    key = (seed, n)
    cached = _NOISE_CACHE.get(key)
    if cached is None:
        cached = _NOISE_CACHE[key] = rng.random_bytes(rng.stream(seed), n)
    return cached


class FaultOp(enum.Enum):
    READ = "read"
    WRITE = "write"


class FaultKind(enum.Enum):
    #: The request fails with an error code (latent sector error).
    FAIL = "fail"
    #: The request "succeeds" but returns / stores altered data.
    CORRUPT = "corrupt"


class Persistence(enum.Enum):
    #: Every matching access fails (media damage).
    STICKY = "sticky"
    #: The first ``transient_count`` matching accesses fail, then the
    #: fault clears (transport glitch, controller hiccup).
    TRANSIENT = "transient"


class CorruptionMode(enum.Enum):
    #: Replace the block with random noise.
    NOISE = "noise"
    #: Replace the block with zeroes (phantom write / lost write read back).
    ZERO = "zero"
    #: Circularly shift the block by one byte (a documented firmware bug).
    SHIFT = "shift"
    #: Apply a file-system-aware corruptor that flips specific fields,
    #: producing a *plausible but wrong* block (misdirected-write style);
    #: these defeat pure type checks and require checksums to catch.
    FIELD = "field"


@dataclass
class Fault:
    """One armed fault beneath the file system.

    Target selection: exactly one of ``block`` (absolute block number) or
    ``block_type`` (resolved through the injector's type oracle at access
    time) must be given, optionally refined with ``match_index`` to skip
    the first N matching accesses.
    """

    op: FaultOp
    kind: FaultKind
    block: Optional[int] = None
    block_type: Optional[str] = None
    persistence: Persistence = Persistence.STICKY
    transient_count: int = 1
    corruption: CorruptionMode = CorruptionMode.NOISE
    #: FS-specific field corruptor: (block_payload, block_type) -> payload.
    corruptor: Optional[Callable[[bytes, str], bytes]] = None
    #: Spatial locality: also affect this many following blocks (a
    #: scratch across neighbouring sectors).  0 means single block.
    locality_run: int = 0
    #: Skip the first N accesses that match before firing.
    match_index: int = 0
    seed: int = 0

    # -- internal state ----------------------------------------------------
    _fired: int = field(default=0, repr=False)
    _skipped: int = field(default=0, repr=False)
    _locked_block: Optional[int] = field(default=None, repr=False)
    # ``op.value`` and the persistence test, resolved once: enum
    # attribute access goes through a descriptor on every call, and
    # :meth:`matches` runs per armed fault per request.
    _op: str = field(default="", init=False, repr=False, compare=False)
    _sticky: bool = field(default=True, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.block is None) == (self.block_type is None):
            raise ValueError("specify exactly one of block= or block_type=")
        if self.transient_count < 1:
            raise ValueError("transient faults must fire at least once")
        if self.locality_run < 0:
            raise ValueError("locality_run must be non-negative")
        self._op = self.op.value
        self._sticky = self.persistence is Persistence.STICKY

    # -- matching ------------------------------------------------------------

    def _covers(self, block: int) -> bool:
        """Is *block* inside this fault's (possibly sticky-locked) extent?"""
        anchor = self._locked_block if self._locked_block is not None else self.block
        if anchor is None:
            return False
        return anchor <= block <= anchor + self.locality_run

    def matches(self, op: str, block: int, block_type: Optional[str]) -> bool:
        """Would this fault fire for the given access?  (Does not consume.)"""
        if self._op != op:
            return False
        if not self._sticky and self._fired >= self.transient_count:
            return False
        if self._locked_block is not None:
            # Once a type-targeted sticky fault binds to a concrete block,
            # it keeps failing that block (and its locality run) only.
            return self._covers(block)
        if self.block is not None:
            if not self._covers(block):
                return False
        else:
            if block_type is None or block_type != self.block_type:
                return False
        return True

    def extent(self, op: str) -> Optional[range]:
        """The blocks :meth:`matches` accepts for an untyped *op*
        request right now (None when it accepts none)."""
        if self._op != op or self.exhausted():
            return None
        anchor = self._locked_block if self._locked_block is not None else self.block
        if anchor is None:
            return None  # type-targeted: an untyped request never matches
        return range(anchor, anchor + self.locality_run + 1)

    def consume(self, block: int) -> bool:
        """Register a matching access.  Returns True if the fault fires
        (as opposed to still skipping toward ``match_index``)."""
        if self._skipped < self.match_index:
            self._skipped += 1
            return False
        if self.block_type is not None and self._locked_block is None:
            self._locked_block = block
        self._fired += 1
        return True

    def exhausted(self) -> bool:
        return not self._sticky and self._fired >= self.transient_count

    # -- corruption ------------------------------------------------------------

    def corrupt(self, payload: bytes, block_type: Optional[str]) -> bytes:
        """Produce the corrupted version of *payload*."""
        if self.corruption is CorruptionMode.ZERO:
            return b"\x00" * len(payload)
        if self.corruption is CorruptionMode.SHIFT:
            return payload[-1:] + payload[:-1]
        if self.corruption is CorruptionMode.FIELD:
            if self.corruptor is None:
                raise ValueError("FIELD corruption requires a corruptor callable")
            out = self.corruptor(payload, block_type or "")
            if len(out) != len(payload):
                raise ValueError("corruptor changed the block size")
            return out
        return _noise(self.seed or 0xC0FFEE, len(payload))

    def describe(self) -> str:
        target = f"block={self.block}" if self.block is not None else f"type={self.block_type}"
        extra = f"+{self.locality_run}" if self.locality_run else ""
        return (
            f"{self.kind.value}-{self.op.value} {target}{extra} "
            f"({self.persistence.value}"
            + (f" x{self.transient_count}" if self.persistence is Persistence.TRANSIENT else "")
            + ")"
        )


def read_failure(block_type: str, sticky: bool = True, transient_count: int = 1) -> Fault:
    """A latent-sector-error read fault on the next block of *block_type*."""
    return Fault(
        op=FaultOp.READ,
        kind=FaultKind.FAIL,
        block_type=block_type,
        persistence=Persistence.STICKY if sticky else Persistence.TRANSIENT,
        transient_count=transient_count,
    )


def write_failure(block_type: str, sticky: bool = True, transient_count: int = 1) -> Fault:
    """A write fault on the next block of *block_type*."""
    return Fault(
        op=FaultOp.WRITE,
        kind=FaultKind.FAIL,
        block_type=block_type,
        persistence=Persistence.STICKY if sticky else Persistence.TRANSIENT,
        transient_count=transient_count,
    )


def corruption(
    block_type: str,
    mode: CorruptionMode = CorruptionMode.NOISE,
    corruptor: Optional[Callable[[bytes, str], bytes]] = None,
) -> Fault:
    """Silent corruption returned on the next read of *block_type*."""
    return Fault(
        op=FaultOp.READ,
        kind=FaultKind.CORRUPT,
        block_type=block_type,
        corruption=mode,
        corruptor=corruptor,
    )
