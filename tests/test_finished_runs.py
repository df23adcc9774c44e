"""A finished run keeps its results, not the inputs it was built from.

A fingerprint run builds one golden slab image per ``(setup,
crash_ops)`` key and restores it before every observed test; once the
run ends nothing reads those images again, so the finished
``Fingerprinter`` must not reach them.  A fleet campaign post-mortems
each lost or stopped trial over its whole logical stream, then keeps
only the events the incident's causes cite, by their original ordinal,
so every cause ref still resolves and nothing else of the stream stays.
"""

from __future__ import annotations

import gc
from types import FunctionType, ModuleType

import pytest

from repro.disk.disk import SlabImage
from repro.fingerprint import WORKLOAD_BY_KEY, Fingerprinter
from repro.fingerprint.adapters import ADAPTERS
from repro.fleet import run_fleet
from repro.fleet.spec import FleetSpec, GeometrySpec
from repro.obs.trace import event_ordinal, resolve_ref

FILE_SYSTEMS = ["ext3", "reiserfs", "jfs", "ntfs", "ixt3"]


def _reachable_slabs(root) -> int:
    """``SlabImage`` objects reachable from *root* through its own
    references: classes and modules are not followed, and a function
    only through its closure and defaults, never its module globals."""
    seen, todo, found = set(), [root], 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, SlabImage):
            found += 1
        elif isinstance(obj, FunctionType):
            todo.extend(obj.__closure__ or ())
            todo.extend(obj.__defaults__ or ())
        else:
            todo.extend(gc.get_referents(obj))
    return found


# -- fingerprint goldens -------------------------------------------------------


@pytest.mark.parametrize("fs_key", FILE_SYSTEMS)
def test_a_finished_fingerprinter_reaches_no_golden_image(fs_key):
    fp = Fingerprinter(ADAPTERS[fs_key]())
    matrix = fp.run()
    assert matrix.cells and fp.tests_run
    assert _reachable_slabs(fp) == 0
    assert _reachable_slabs(matrix) == 0


def test_a_run_that_raises_drops_its_goldens_too():
    class Stop(Exception):
        pass

    def progress(message: str) -> None:
        if "workload c" in message:
            raise Stop(message)

    fp = Fingerprinter(ADAPTERS["ext3"](), workloads=[
        WORKLOAD_BY_KEY[k] for k in "abcd"], progress=progress)
    with pytest.raises(Stop):
        fp.run()
    assert list(fp.workload_digest) == ["a", "b"]
    assert _reachable_slabs(fp) == 0


def test_each_golden_is_built_once_per_run():
    adapter = ADAPTERS["ext3"]()
    builds = []
    mkfs = adapter.mkfs
    adapter.mkfs = lambda dev: builds.append(1) or mkfs(dev)
    workloads = [WORKLOAD_BY_KEY[k] for k in "abcdst"]
    keys = {(w.setup, w.crash_ops) for w in workloads}
    assert 1 < len(keys) < len(workloads)
    fp = Fingerprinter(adapter, workloads=workloads)
    fp.run()
    assert len(builds) == len(keys)
    # A second run starts from nothing and builds each golden again.
    fp.run()
    assert len(builds) == 2 * len(keys)


# -- fleet streams -------------------------------------------------------------

SMALL = FleetSpec(
    trials=3, num_blocks=32, mission_hours=2000.0, seed=7,
    geometries=(GeometrySpec("single", "single", 1),
                GeometrySpec("mirror2", "mirror", 2)),
)


@pytest.fixture(scope="module")
def report():
    return run_fleet(SMALL, jobs=1)


def test_each_kept_stream_holds_exactly_its_cited_events(report):
    assert report.incidents
    assert set(report.streams) == {i.stream_label for i in report.incidents}
    for incident in report.incidents:
        kept = report.streams[incident.stream_label]
        assert isinstance(kept, dict)
        assert set(kept) == {event_ordinal(c.ref) for c in incident.causes}
        for cause in incident.causes:
            assert resolve_ref(cause.ref, report.streams).tag == cause.tag


def test_a_ref_to_an_event_not_kept_does_not_resolve(report):
    incident = next(i for i in report.incidents if i.causes)
    kept = report.streams[incident.stream_label]
    missing = next(n for n in range(incident.events + 1) if n not in kept)
    with pytest.raises(ValueError, match="holds no event"):
        resolve_ref(f"{incident.stream_label}#e{missing}", report.streams)
