"""Array members record no I/O: the stack's stream owns the trace.

A member's injector is given no event stream, so no
:class:`~repro.obs.events.IOEvent` is built for a member request, on
any geometry and in any mode — healthy and degraded reads and writes,
scrub and rebuild.  The array's own stream keeps its logical events.
"""

from __future__ import annotations

import sys

import pytest

from repro.disk.faults import Fault, FaultKind, FaultOp
from repro.obs import events as events_mod
from repro.obs.events import ArrayDetectionEvent, EventLog, IOEvent
from repro.redundancy import make_array

NUM_BLOCKS = 24
BS = 512

GEOMETRIES = {
    "mirror2": ("mirror", 2),
    "mirror3": ("mirror", 3),
    "parity4": ("parity", 4),
    "rdp5": ("rdp", 5),
}


@pytest.fixture
def io_event_calls(monkeypatch):
    """Count every call of ``io_event``, under whatever name a module
    imported it."""
    calls = []
    original = events_mod.io_event

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "io_event", None) is original:
            monkeypatch.setattr(module, "io_event", counted)
    return calls


@pytest.mark.parametrize("label", list(GEOMETRIES))
def test_member_requests_build_no_io_events(label, io_event_calls):
    kind, members = GEOMETRIES[label]
    array = make_array(kind, NUM_BLOCKS, BS, members=members)
    array.events = EventLog()
    for block in range(NUM_BLOCKS):
        array.write_block(block, bytes([block]) * BS)
    assert [array.read_block(b) for b in range(NUM_BLOCKS)] == \
        [bytes([b]) * BS for b in range(NUM_BLOCKS)]
    latent = array.members[1].injector
    latent.arm(Fault(FaultOp.READ, FaultKind.FAIL, block=0))
    array.read_block(0)
    array.scrub()
    latent.clear_faults()
    array.fail_member(0)
    for block in range(0, NUM_BLOCKS, 3):
        array.read_block(block)
        array.write_block(block, bytes([block + 1]) * BS)
    array.replace_member(0)
    array.rebuild_member(0)
    array.scrub()

    assert io_event_calls == []
    assert all(m.injector.events is None for m in array.members)
    assert not any(isinstance(e, IOEvent) for e in array.events)
    assert array.events.of_type(ArrayDetectionEvent)
