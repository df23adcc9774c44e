"""The ReiserFS balanced tree: keys, items, nodes, and tree operations.

Virtually all metadata and data live in one balanced tree (§5.2):
*stat items* describe files and directories, *directory items* map
names to object keys, *direct items* hold small-file bodies and tails,
and *indirect items* point at unformatted data blocks.  Internal and
leaf nodes carry a block header (level, item count, free space) that
ReiserFS sanity-checks on every access.

The tree is parameterized by I/O callbacks so the owning file system
supplies its failure policy (and the journal cache) around every node
read and write.  Fan-out and leaf capacity are mkfs-configurable so
deep trees arise with tiny images.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from struct import Struct
from typing import Callable, List, Optional, Tuple

from repro.common.errors import CorruptionDetected
from repro.common.structs import DecodeMemo, U32, frozen_record, u32_seq

# Item types, in key sort order.
IT_STAT = 0
IT_DIRENTRY = 1
IT_INDIRECT = 2
IT_DIRECT = 3

#: Key: (dirid, objectid, offset, type).
Key = Tuple[int, int, int, int]

_HDR_STRUCT = Struct("<HHHH")  # level, nitems, free_space, pad
_HDR_SIZE = _HDR_STRUCT.size
_KEY_STRUCT = Struct("<IIII")
_KEY_SIZE = _KEY_STRUCT.size
_IHEAD_STRUCT = Struct("<IIIIHH")  # key + length + location
_IHEAD_SIZE = _IHEAD_STRUCT.size

MAX_HEIGHT = 7

_NODE_MEMO = DecodeMemo(128)


@dataclass(frozen=True)
class Item:
    """One leaf item: key plus opaque body.  Frozen, because every
    decode of one leaf payload hands out the same items."""

    key: Key
    body: bytes

    @property
    def kind(self) -> int:
        return self.key[3]


@dataclass
class Node:
    """A tree node; ``level`` 1 is a leaf, higher levels are internal."""

    level: int
    items: List[Item] = field(default_factory=list)          # leaves
    keys: List[Key] = field(default_factory=list)            # internal
    children: List[int] = field(default_factory=list)        # internal

    @property
    def is_leaf(self) -> bool:
        return self.level == 1

    # -- serialization ------------------------------------------------------

    def pack(self, block_size: int) -> bytes:
        if self.is_leaf:
            needed = _HDR_SIZE + sum(_IHEAD_SIZE + len(i.body) for i in self.items)
            if needed > block_size:
                raise ValueError("leaf node overflow")
            heads = bytearray()
            bodies = bytearray()
            loc = block_size
            for item in self.items:
                loc -= len(item.body)
                heads += _IHEAD_STRUCT.pack(*item.key, len(item.body), loc)
            for item in reversed(self.items):
                bodies += item.body
            used = _HDR_SIZE + len(heads) + len(bodies)
            free = block_size - used
            if free < 0:
                raise ValueError("leaf node overflow")
            hdr = _HDR_STRUCT.pack(self.level, len(self.items), free, 0)
            return hdr + bytes(heads) + b"\x00" * free + bytes(bodies)
        body = bytearray()
        for key in self.keys:
            body += _KEY_STRUCT.pack(*key)
        for child in self.children:
            body += U32.pack(child)
        free = block_size - _HDR_SIZE - len(body)
        if free < 0:
            raise ValueError("internal node overflow")
        hdr = _HDR_STRUCT.pack(self.level, len(self.keys), free, 0)
        return hdr + bytes(body) + b"\x00" * free

    @classmethod
    def unpack(cls, data: bytes, block: int) -> "Node":
        """A fresh node, to change, from the shared record of *data*."""
        return cls.from_record(node_record(data, block))

    @classmethod
    def from_record(cls, rec) -> "Node":
        return cls(rec.level, list(rec.items), list(rec.keys), list(rec.children))


NodeRecord = frozen_record(Node, "NodeRecord", "is_leaf")


def node_record(data: bytes, block: int) -> NodeRecord:
    """Parse and sanity-check a node (D_sanity: level, item count,
    free space are all verified — §5.2)."""
    seen = _NODE_MEMO.get(data)
    if seen is not None:
        return seen
    level, nitems, free, _pad = _HDR_STRUCT.unpack_from(data)
    if not 1 <= level <= MAX_HEIGHT:
        raise CorruptionDetected(block, f"tree node level {level} out of range")
    bs = len(data)
    if level == 1:
        if _HDR_SIZE + nitems * _IHEAD_SIZE > bs:
            raise CorruptionDetected(block, f"leaf item count {nitems} impossible")
        items: List[Item] = []
        total_body = 0
        for i in range(nitems):
            f = _IHEAD_STRUCT.unpack_from(data, _HDR_SIZE + i * _IHEAD_SIZE)
            key = (f[0], f[1], f[2], f[3])
            length, loc = f[4], f[5]
            if loc + length > bs or loc < _HDR_SIZE:
                raise CorruptionDetected(block, "leaf item body out of bounds")
            items.append(Item(key, bytes(data[loc:loc + length])))
            total_body += length
        expect_free = bs - _HDR_SIZE - nitems * _IHEAD_SIZE - total_body
        if free != expect_free:
            raise CorruptionDetected(block, "leaf free-space field inconsistent")
        return _NODE_MEMO.put(NodeRecord(1, tuple(items), (), ()), data)
    nkeys = nitems
    need = _HDR_SIZE + nkeys * _KEY_SIZE + (nkeys + 1) * 4
    if need > bs:
        raise CorruptionDetected(block, f"internal key count {nkeys} impossible")
    keys: List[Key] = []
    off = _HDR_SIZE
    for _ in range(nkeys):
        f = _KEY_STRUCT.unpack_from(data, off)
        keys.append((f[0], f[1], f[2], f[3]))
        off += _KEY_SIZE
    children = u32_seq(nkeys + 1).unpack_from(data, off)
    expect_free = bs - need
    if free != expect_free:
        raise CorruptionDetected(block, "internal free-space field inconsistent")
    prev = None
    for key in keys:
        if prev is not None and key < prev:
            raise CorruptionDetected(block, "internal keys out of order")
        prev = key
    return _NODE_MEMO.put(NodeRecord(level, (), tuple(keys), children), data)


# I/O callbacks supplied by the file system.
ReadNode = Callable[[int, int], NodeRecord]  # (block, retries) -> NodeRecord
WriteNode = Callable[[int, "Node"], None]
AllocBlock = Callable[[str], int]            # kind -> block
FreeBlock = Callable[[int], None]


class BTree:
    """Insert / delete / search / range-scan over on-disk nodes: a search
    reads the shared records ``read_node`` returns, an update copies."""

    def __init__(
        self,
        read_node: ReadNode,
        write_node: WriteNode,
        alloc: AllocBlock,
        free: FreeBlock,
        max_leaf_items: int,
        max_fanout: int,
        block_size: int,
    ):
        self.read_node = read_node
        self.write_node = write_node
        self.alloc = alloc
        self.free = free
        self.max_leaf_items = max_leaf_items
        self.max_fanout = max_fanout
        self.block_size = block_size
        self.root_block: int = 0
        self.height: int = 1

    # -- search ----------------------------------------------------------------

    def _descend(self, key: Key, retries: int = 0) -> List[Tuple[int, NodeRecord]]:
        """Path of (block, record) from root to the leaf covering *key*."""
        path: List[Tuple[int, NodeRecord]] = []
        block = self.root_block
        for _ in range(MAX_HEIGHT + 1):
            node = self.read_node(block, retries)
            path.append((block, node))
            if node.is_leaf:
                return path
            idx = bisect_right(node.keys, key)
            block = node.children[idx]
        raise CorruptionDetected(block, "tree deeper than maximum height")

    def _descend_to_change(self, key: Key, retries: int = 0) -> List[Tuple[int, Node]]:
        return [(b, Node.from_record(node)) for b, node in self._descend(key, retries)]

    def lookup(self, key: Key, retries: int = 0) -> Optional[Item]:
        path = self._descend(key, retries)
        leaf = path[-1][1]
        for item in leaf.items:
            if item.key == key:
                return item
        return None

    def range_scan(self, lo: Key, hi: Key, retries: int = 0) -> List[Item]:
        """All items with lo <= key <= hi (small trees: full walk)."""
        out: List[Item] = []
        self._collect(self.root_block, lo, hi, out, retries, 0)
        return out

    def _collect(self, block: int, lo: Key, hi: Key, out: List[Item],
                 retries: int, depth: int) -> None:
        if depth > MAX_HEIGHT:
            raise CorruptionDetected(block, "tree walk exceeded maximum height")
        node = self.read_node(block, retries)
        if node.is_leaf:
            out.extend(i for i in node.items if lo <= i.key <= hi)
            return
        for idx, child in enumerate(node.children):
            child_lo = node.keys[idx - 1] if idx > 0 else None
            child_hi = node.keys[idx] if idx < len(node.keys) else None
            if child_hi is not None and child_hi <= lo:
                continue  # subtree holds only keys strictly below lo
            if child_lo is not None and child_lo > hi:
                continue  # subtree holds only keys above hi
            self._collect(child, lo, hi, out, retries, depth + 1)

    # -- insert ------------------------------------------------------------------

    def insert(self, item: Item, retries: int = 0) -> None:
        if self.lookup(item.key, retries) is not None:
            raise ValueError(f"duplicate key {item.key}")
        path = self._descend_to_change(item.key, retries)
        self._insert_at(path, item)

    def replace(self, item: Item, retries: int = 0) -> None:
        """Update an existing item's body (delete + insert)."""
        self.delete(item.key, retries)
        self.insert(item, retries)

    def _leaf_fits(self, leaf: Node) -> bool:
        if len(leaf.items) > self.max_leaf_items:
            return False
        used = _HDR_SIZE + sum(_IHEAD_SIZE + len(i.body) for i in leaf.items)
        return used <= self.block_size

    def _insert_at(self, path: List[Tuple[int, Node]], item: Item) -> None:
        block, leaf = path[-1]
        pos = bisect_right([i.key for i in leaf.items], item.key)
        leaf.items.insert(pos, item)
        if self._leaf_fits(leaf):
            self.write_node(block, leaf)
            return
        # Split the leaf; promote the right sibling's first key.
        mid = len(leaf.items) // 2
        right = Node(level=1, items=leaf.items[mid:])
        leaf.items = leaf.items[:mid]
        right_block = self.alloc("leaf")
        self.write_node(block, leaf)
        self.write_node(right_block, right)
        self._promote(path[:-1], block, right.items[0].key, right_block)

    def _promote(self, path: List[Tuple[int, Node]], left_block: int,
                 key: Key, right_block: int) -> None:
        if not path:
            # Root split: the tree grows by one level.
            new_root = Node(level=self.height + 1, keys=[key],
                            children=[left_block, right_block])
            new_block = self.alloc("internal")
            self.write_node(new_block, new_root)
            self.root_block = new_block
            self.height += 1
            return
        block, node = path[-1]
        idx = node.children.index(left_block)
        node.keys.insert(idx, key)
        node.children.insert(idx + 1, right_block)
        if len(node.children) <= self.max_fanout:
            self.write_node(block, node)
            return
        mid = len(node.keys) // 2
        promoted = node.keys[mid]
        right = Node(level=node.level, keys=node.keys[mid + 1:],
                     children=node.children[mid + 1:])
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        right_blk = self.alloc("internal")
        self.write_node(block, node)
        self.write_node(right_blk, right)
        self._promote(path[:-1], block, promoted, right_blk)

    # -- delete --------------------------------------------------------------------

    def delete(self, key: Key, retries: int = 0) -> Item:
        path = self._descend_to_change(key, retries)
        block, leaf = path[-1]
        for i, item in enumerate(leaf.items):
            if item.key == key:
                removed = leaf.items.pop(i)
                if leaf.items or len(path) == 1:
                    self.write_node(block, leaf)
                else:
                    self._drop_child(path[:-1], block)
                    self.free(block)
                return removed
        raise KeyError(f"key {key} not found")

    def _drop_child(self, path: List[Tuple[int, Node]], child_block: int) -> None:
        block, node = path[-1]
        idx = node.children.index(child_block)
        node.children.pop(idx)
        if node.keys:
            node.keys.pop(0 if idx == 0 else idx - 1)
        if not node.children:
            if len(path) == 1:
                # The whole tree emptied: recreate an empty leaf root.
                self.write_node(block, Node(level=1))
                self.root_block = block
                self.height = 1
                return
            self._drop_child(path[:-1], block)
            self.free(block)
            return
        if len(node.children) == 1 and block == self.root_block and node.level > 1:
            # Root with a single child: shrink the tree by one level.
            self.root_block = node.children[0]
            self.height -= 1
            self.free(block)
            return
        self.write_node(block, node)

    # -- bootstrap --------------------------------------------------------------------

    def create_empty(self) -> None:
        block = self.alloc("leaf")
        self.write_node(block, Node(level=1))
        self.root_block = block
        self.height = 1
