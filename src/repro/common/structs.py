"""Shared precompiled :class:`struct.Struct` instances.

Every on-disk record in the tree serializes through module-level
precompiled ``Struct`` objects instead of inline format strings —
``struct.pack("<II", ...)`` re-parses the format on every call, which
dominates hot paths that touch thousands of records per mount.
``tools/lint_struct.py`` (wired into CI) rejects new inline call sites.

For variable-length runs of fixed-width integers (pointer blocks,
journal descriptor tables, directory name prefixes) use the cached
factories below; they compile each distinct length once per process.

Decoding is memoised the same way: every metadata block decoder keeps
one :class:`DecodeMemo`, so a payload already decoded in this process
costs a dictionary probe instead of the ``struct`` work and object
construction behind it (DESIGN.md, "Decode memo").
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import fields
from functools import lru_cache
from struct import Struct
from typing import Any, Dict

#: Single little-endian primitives, shared by all parsers.
U8 = Struct("<B")
U16 = Struct("<H")
U32 = Struct("<I")
U64 = Struct("<Q")
U16x2 = Struct("<HH")
U32x2 = Struct("<II")
U32x3 = Struct("<III")


@lru_cache(maxsize=None)
def u32_seq(count: int) -> Struct:
    """``Struct`` for *count* consecutive little-endian u32 values."""
    return Struct(f"<{count}I")


@lru_cache(maxsize=None)
def compiled(fmt: str) -> Struct:
    """Cached ``Struct`` for an arbitrary format built at runtime."""
    return Struct(fmt)


@lru_cache(maxsize=128)
def interned(cls, **fields):
    """The one frozen ``cls(**fields)`` per distinct field set: a disk
    geometry, or a file-system config decoded from a superblock.  Every
    disk and every mount of one geometry shares it, and with it the
    layout its cached properties computed on first use.  A construction
    that raises (a geometry that fails validation) stores nothing."""
    return cls(**fields)


def frozen_record(cls, name: str, *shared: str) -> type:
    """The record a decoder's memo stores for the dataclass *cls*: a named
    tuple of its fields (a list held as a tuple) and the properties named
    in *shared*, which readers share; an update builds a *cls* from it."""
    base = namedtuple(name, [f.name for f in fields(cls)])
    return type(name, (base,), {"__slots__": (), "__module__": cls.__module__,
                                **{p: vars(cls)[p] for p in shared}})


class DecodeMemo:
    """One decoder's bounded, payload-keyed memo of decoded values.

    A decoder is a pure function of the payload and its other inputs,
    and the zero-copy substrate hands an unchanged block back as the
    same ``bytes`` object, whose hash is cached — so a hit costs one
    probe.  The rules that keep it sound:

    * The key is the payload itself plus every other input of the
      decoder (``nptrs``, ``fanout``, ``block_size``), never the block
      number.  Only an exact ``bytes`` payload is looked up or stored:
      a ``memoryview`` or ``bytearray`` may change under the key.
    * A decode that raises stores nothing — the caller only reaches
      :meth:`put` with a value — so a payload that fails its sanity
      check is decoded, and reported against the caller's block, on
      every access.
    * The stored value is one immutable record (``frozen_record``, or a
      tuple) that every reader shares: a read-only path takes it as is.
      Only an update path builds a mutable object, from the record —
      ``unpack`` and ``_node_get`` hand each caller a fresh one.
    * At most *capacity* entries, a constant of the decoder; a full
      memo gives up its oldest entry for each new one.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: Dict[Any, Any] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def get(self, payload, *params):
        """The value stored for this payload and *params*, else None."""
        if type(payload) is bytes:
            return self._entries.get((payload, *params) if params else payload)
        return None

    def put(self, value, payload, *params):
        """Store *value*, the decode of *payload* under *params*, and
        return it."""
        if type(payload) is bytes and self.capacity > 0:
            entries = self._entries
            if len(entries) >= self.capacity:
                del entries[next(iter(entries))]
            entries[(payload, *params) if params else payload] = value
        return value
