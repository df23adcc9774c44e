"""``_node_peek`` reads what ``_node_get`` reads, and shares nothing
that ``_node_get``'s caller may change.

The generic read-only bodies read a node through ``_node_peek``, which
may return the decoder's shared, immutable record; every path that
changes a node takes a fresh object from ``_node_get`` (DESIGN.md,
"Decode memo").  Hypothesis applies short op sequences (creat, write,
truncate, mkdir, rename, unlink) to each of the five file systems.
After each op, every reachable handle must peek equal, field by field,
to what ``_node_get`` returns; then a ``_node_get`` result changed in
every field and never put back must leave the next peek as it was.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FS_FACTORIES

from repro.common.errors import FSError

PATHS = ["/a", "/b", "/d", "/d/x", "/d/y"]
#: 0, one partial block, several blocks, and past ext3's twelve direct
#: pointers (1 KB blocks), so the indirect walk is read as well.
SIZES = [0, 100, 3000, 14 * 1024]

paths = st.sampled_from(PATHS)
operations = st.one_of(
    st.tuples(st.just("creat"), paths),
    st.tuples(st.just("write"), paths, st.sampled_from(SIZES)),
    st.tuples(st.just("truncate"), paths, st.sampled_from(SIZES)),
    st.tuples(st.just("mkdir"), paths),
    st.tuples(st.just("rename"), paths, paths),
    st.tuples(st.just("unlink"), paths),
)


def apply_op(fs, op) -> None:
    kind, path = op[0], op[1]
    try:
        if kind == "creat":
            fs.close(fs.creat(path))
        elif kind == "write":
            fs.write_file(path, bytes(i % 251 for i in range(op[2])))
        elif kind == "truncate":
            fs.truncate(path, op[2])
        elif kind == "mkdir":
            fs.mkdir(path)
        elif kind == "rename":
            fs.rename(path, op[2])
        else:
            fs.unlink(path)
    except FSError:
        pass


def reachable(fs):
    """Every handle the namespace names, root first."""
    handles, pending = [fs.ROOT], ["/"]
    while pending:
        directory = pending.pop()
        for name in fs.getdirentries(directory):
            if name in (".", ".."):
                continue
            path = directory.rstrip("/") + "/" + name
            handle = fs._lookup(path, follow=False)
            if handle not in handles:
                handles.append(handle)
            if fs._is_dir(fs._node_peek(handle)):
                pending.append(path)
    return handles


def fields_of(node) -> dict:
    """A node's fields by name, every list a tuple."""
    names = ([f.name for f in dataclasses.fields(node)]
             if dataclasses.is_dataclass(node) else node._fields)
    out = {}
    for name in names:
        value = getattr(node, name)
        out[name] = tuple(value) if isinstance(value, list) else value
    return out


def scramble(node) -> None:
    """Change every field of a ``_node_get`` result in place."""
    for name, value in fields_of(node).items():
        if isinstance(value, tuple):
            getattr(node, name)[0] += 7
        else:
            setattr(node, name, value + 7)


def check_handles(fs) -> None:
    for handle in reachable(fs):
        peeked = fields_of(fs._node_peek(handle))
        node = fs._node_get(handle)
        assert peeked == fields_of(node), handle
        scramble(node)
        assert fields_of(fs._node_peek(handle)) == peeked, handle
        assert fields_of(fs._node_get(handle)) == peeked, handle


@pytest.mark.parametrize("name", sorted(FS_FACTORIES))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(ops=st.lists(operations, min_size=1, max_size=6))
def test_peek_equals_get_and_a_changed_copy_stays_private(name, ops):
    _disk, fs = FS_FACTORIES[name]()
    fs.mount()
    check_handles(fs)
    for op in ops:
        apply_op(fs, op)
        check_handles(fs)
