"""Outside-in tracing for the perf ledger.

Nothing under ``src/`` knows about this file.  :class:`Tracer` wraps the
public callables of each layer (class attributes, and module globals at
every name where they are looked up), pushes one frame per call on a
single stack, and unwraps them again.  A frame's self time is its
duration minus the durations of the frames opened beneath it, so the
self times of one pass sum to the pass's wall time exactly.

Every wrapped callable keeps ``{parent layer: [calls, total_s, self_s]}``
totals.  Callables named in a spec's ``full`` set additionally keep one
span record per call (name, layer, start, end, parent span, work unit);
the per-block boundaries (``read_block``, ``emit``...) are entered far too
often for that and keep the totals only.

:class:`DiskMeter` is the one hook that also runs with tracing off: it
sums ``DiskStats`` over every ``SimulatedDisk`` a pass creates, which is
where ``device_ios`` and ``virtual_s`` come from.  It touches disk
construction and ``restore`` only, never the per-I/O path.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Layer that owns whatever no wrapped callable covers (the workload
#: driver's own loops, unwrapped constructors).
ROOT_LAYER = "bench.driver"


@dataclass(frozen=True)
class Spec:
    """The callables of one layer that live on one owner."""

    layer: str
    #: ``"pkg.module"`` for module functions, ``"pkg.module:Class"`` for
    #: methods defined by that class.
    owner: str
    names: Tuple[str, ...]
    #: Subset of *names* that keeps full span records.
    full: Tuple[str, ...] = ()


_FS_CLASSES = (
    "repro.vfs.api:FileSystem",
    "repro.fs.base:JournaledFS",
    "repro.fs.ext3.ext3:Ext3",
    "repro.fs.ixt3.ixt3:Ixt3",
    "repro.fs.reiserfs.reiserfs:ReiserFS",
    "repro.fs.jfs.jfs:JFS",
    "repro.fs.ntfs.ntfs:NTFS",
)
#: ``JournaledFS`` implements these three syscalls as pure journal
#: commits, so they are charged to ``fs.journal``.
_JOURNAL_SYSCALLS = ("commit_transaction", "sync", "fsync")

SPECS: Tuple[Spec, ...] = (
    Spec("fs.journal", "repro.fs.base:JournaledFS",
         _JOURNAL_SYSCALLS, full=_JOURNAL_SYSCALLS),
    Spec("fs.journal", "repro.fs.ext3.journal:Journal",
         ("commit", "recover"), full=("commit", "recover")),
    Spec("fs.journal", "repro.fs.jfs.journal:RecordJournal",
         ("commit", "recover"), full=("commit", "recover")),
    Spec("fs.fsck", "repro.fs.ext3.fsck", ("fsck_ext3",), full=("fsck_ext3",)),
    Spec("common.bitmap", "repro.common.bitmap:Bitmap",
         ("find_free", "find_free_run")),
    Spec("common.checksum", "repro.common.checksum",
         ("sha1", "sha1_many", "transaction_checksum", "crc32")),
    Spec("disk.cache", "repro.disk.cache:BlockCache",
         ("read_block", "write_block", "invalidate_all", "flush",
          "snapshot", "restore", "stall")),
    Spec("disk.injector", "repro.disk.injector:FaultInjector",
         ("read_block", "write_block", "arm", "flush", "snapshot",
          "restore", "stall")),
    Spec("disk.injector", "repro.disk.faults:Fault", ("consume",)),
    Spec("disk.disk", "repro.disk.disk:SimulatedDisk",
         ("read_block", "write_block", "stall", "poke", "snapshot", "restore"),
         full=("snapshot", "restore")),
    Spec("disk.stack", "repro.disk.stack:DeviceStack",
         ("__init__", "build", "restore"), full=("build", "restore")),
    Spec("disk.recorder", "repro.disk.recorder:WriteRecorder",
         ("read_block", "write_block", "snapshot", "restore")),
    Spec("redundancy.array", "repro.redundancy.array:ArrayDevice",
         ("read_block", "write_block", "scrub", "scrub_step",
          "rebuild_member", "snapshot", "restore"),
         full=("rebuild_member",)),
    Spec("redundancy.rdp", "repro.redundancy.rdp:RDPStripe",
         ("encode", "reconstruct", "verify")),
    Spec("obs.events", "repro.obs.events:EventLog", ("emit", "digest")),
    Spec("obs.events", "repro.obs.events", ("fold_digest",)),
    Spec("obs.postmortem", "repro.obs.postmortem",
         ("build_incident",), full=("build_incident",)),
    Spec("fingerprint.harness", "repro.fingerprint.harness:Fingerprinter",
         ("run",), full=("run",)),
    Spec("fingerprint.inference", "repro.fingerprint.inference",
         ("infer_policy",), full=("infer_policy",)),
    Spec("crash.engine", "repro.crash.engine",
         ("explore", "record", "enumerate_states", "apply_state",
          "check_state", "state_digest"),
         full=("explore", "record", "check_state", "state_digest")),
    Spec("fleet.sim", "repro.fleet.sim", ("run_trial",), full=("run_trial",)),
    Spec("fleet.campaign", "repro.fleet.campaign",
         ("run_fleet",), full=("run_fleet",)),
    Spec("bench.workloads", "repro.bench.workloads",
         ("ssh_build", "web_server_setup", "web_server", "postmark", "tpcb"),
         full=("ssh_build", "web_server_setup", "web_server", "postmark",
               "tpcb")),
    Spec("bench.harness", "repro.bench.harness",
         ("run_variant",), full=("run_variant",)),
    # ``wait`` is concurrent.futures.wait as repro.common.pool looks it
    # up: the time the parent spends blocked on its workers.
    Spec("common.pool", "repro.common.pool",
         ("pool_map", "warm_pool", "_map_chunks", "wait"),
         full=("pool_map", "warm_pool")),
)

#: Every layer a traced run reports, in display order.
LAYERS: Tuple[str, ...] = ("fs",) + tuple(
    dict.fromkeys(spec.layer for spec in SPECS))


def _fs_specs() -> List[Spec]:
    """The ``FileSystem`` syscall surface as each class implements it."""
    api = _resolve("repro.vfs.api:FileSystem")
    syscalls = [name for name, value in vars(api).items()
                if inspect.isfunction(value) and not name.startswith("_")]
    specs = []
    for owner in _FS_CLASSES:
        cls = _resolve(owner)
        names = tuple(
            name for name in syscalls
            if inspect.isfunction(vars(cls).get(name))
            and not (owner.endswith(":JournaledFS")
                     and name in _JOURNAL_SYSCALLS))
        specs.append(Spec("fs", owner, names,
                          full=("mount",) if "mount" in names else ()))
    return specs


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


# -- per-callable hooks --------------------------------------------------------
#
# ``tap(counters, args) -> args`` runs before the call and may replace
# the arguments; ``after(counters, result)`` runs on success; ``error``
# is ``(counter name, exception type)``.


def _counted_blocks(counters, blocks: Iterable[bytes]):
    for block in blocks:
        counters["common.checksum.bytes"] += len(block)
        yield block


def _tap_checksum_one(counters, args):
    counters["common.checksum.bytes"] += len(args[0])
    return args


def _tap_checksum_many(counters, args):
    # The callers pass generators, so the bytes can only be counted as
    # the checksum consumes them.
    return (_counted_blocks(counters, args[0]),) + args[1:]


def _hooks() -> Dict[Tuple[str, str], Dict[str, Any]]:
    from repro.common.errors import FSError
    from repro.obs.events import ArrayRecoveryEvent

    recovery_tags = {
        "degraded-read": "redundancy.array.degraded_reads",
        "read-repair": "redundancy.array.read_repairs",
    }

    def tap_emit(counters, args):
        event = args[1]
        if type(event) is ArrayRecoveryEvent:
            name = recovery_tags.get(event.tag)
            if name is not None:
                counters[name] += 1
        return args

    def tap_chunks(counters, args):
        counters["common.pool.chunks"] += len(args[1])
        return args

    def after_consume(counters, fired):
        if fired:
            counters["disk.injector.faults_fired"] += 1

    def after_scrub(counters, report):
        counters["redundancy.array.scrub_units"] += report.units_scanned

    def after_rebuild(counters, rebuilt):
        counters["redundancy.array.rebuild_blocks"] += rebuilt

    hooks: Dict[Tuple[str, str], Dict[str, Any]] = {
        ("repro.obs.events:EventLog", "emit"): {"tap": tap_emit},
        ("repro.common.pool", "_map_chunks"): {"tap": tap_chunks},
        ("repro.disk.faults:Fault", "consume"): {"after": after_consume},
        ("repro.redundancy.array:ArrayDevice", "scrub"):
            {"after": after_scrub},
        ("repro.redundancy.array:ArrayDevice", "rebuild_member"):
            {"after": after_rebuild},
        ("repro.common.checksum", "sha1"): {"tap": _tap_checksum_one},
        ("repro.common.checksum", "crc32"): {"tap": _tap_checksum_one},
        ("repro.common.checksum", "sha1_many"): {"tap": _tap_checksum_many},
        ("repro.common.checksum", "transaction_checksum"):
            {"tap": _tap_checksum_many},
    }
    for owner in _FS_CLASSES:
        for name in vars(_resolve(owner)):
            hooks.setdefault((owner, name), {})["error"] = \
                ("fs.errors", FSError)
    return hooks


# -- the tracer ----------------------------------------------------------------


@dataclass
class PassTrace:
    """Everything one traced pass recorded."""

    #: ``(layer, name) -> {parent layer: [calls, total_s, self_s]}``
    totals: Dict[Tuple[str, str], Dict[str, List[float]]]
    #: ``[name, layer, start, end, parent span id, unit]`` per full span.
    spans: List[list]
    counters: Dict[str, float]

    def _entries(self, layer: str, names: Tuple[str, ...],
                 parent: Optional[str] = None):
        """``(parent layer, [calls, total_s, self_s])`` of one layer's
        callables; *names* are bare (``restore``, not ``DeviceStack.restore``)
        and empty means all."""
        for (lyr, name), parents in self.totals.items():
            if lyr != layer or (names and name.rpartition(".")[2] not in names):
                continue
            for parent_layer, entry in parents.items():
                if parent is None or parent_layer == parent:
                    yield parent_layer, entry

    def calls(self, layer: str, *names: str, parent: Optional[str] = None) -> int:
        return sum(entry[0] for _, entry in self._entries(layer, names, parent))

    def total_s(self, layer: str, *names: str,
                parent: Optional[str] = None) -> float:
        """Inclusive time.  Only for names that never nest in one another."""
        return sum(entry[1] for _, entry in self._entries(layer, names, parent))

    def entered_s(self, layer: str, *names: str) -> float:
        """Inclusive time counted where the layer is entered: a call made
        from the layer itself is already inside an outer one."""
        return sum(entry[1] for parent_layer, entry
                   in self._entries(layer, names) if parent_layer != layer)

    def self_s(self, layer: str) -> float:
        return sum(entry[2] for _, entry in self._entries(layer, ()))

    def durations_ms(self, layer: str, *names: str) -> List[float]:
        return [(span[3] - span[2]) * 1e3 for span in self.spans
                if span[1] == layer and span[0].rpartition(".")[2] in names]


@dataclass
class Tracer:
    stack: List[list] = field(default_factory=list)
    totals: Dict[Tuple[str, str], Dict[str, List[float]]] = \
        field(default_factory=dict)
    spans: List[list] = field(default_factory=list)
    counters: Dict[str, float] = field(
        default_factory=lambda: defaultdict(int))
    #: Work unit the driver is in; copied into full span records.
    unit: str = ""
    #: ``(namespace dict or class, attribute, original, wrapper)``
    _patches: List[Tuple[Any, str, Any, Any]] = field(default_factory=list)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, layer: str, name: str, fn: Callable, full: bool = False,
             tap: Optional[Callable] = None, after: Optional[Callable] = None,
             error: Optional[Tuple[str, type]] = None) -> Callable:
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name} is a generator: its span would end "
                            "before its work does")
        stack, spans, counters, tracer = \
            self.stack, self.spans, self.counters, self
        by_parent = self.totals.setdefault((layer, name), {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if tap is not None:
                args = tap(counters, args)
            # [layer, time covered by child frames, nearest full span id]
            frame = [layer, 0.0, parent[2] if parent is not None else -1]
            if full:
                record = [name, layer, 0.0, 0.0, frame[2], tracer.unit]
                frame[2] = len(spans)
                spans.append(record)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(counters, result)
                return result
            except BaseException as exc:
                if error is not None and isinstance(exc, error[1]):
                    counters[error[0]] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if parent is not None:
                    parent[1] += took
                    key = parent[0]
                else:
                    key = ""
                entry = by_parent.get(key)
                if entry is None:
                    entry = by_parent[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += took
                entry[2] += took - frame[1]
                if full:
                    record[2] = start
                    record[3] = end

        return wrapper

    def install(self) -> None:
        """Wrap every spec'd callable.  Call before the workload builds
        any object, so bound references are taken from wrapped classes."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        specs = list(SPECS) + _fs_specs()
        for spec in specs:      # import every owner before scanning modules
            _resolve(spec.owner)
        hooks = _hooks()
        namespaces = _namespaces()
        for spec in specs:
            owner = _resolve(spec.owner)
            is_class = inspect.isclass(owner)
            label = owner.__name__ if is_class else ""
            for name in spec.names:
                display = f"{label}.{name}" if label else name
                options = dict(hooks.get((spec.owner, name), {}),
                               full=name in spec.full)
                if is_class:
                    self._patch_method(spec.layer, owner, name, display,
                                       options)
                else:
                    self._patch_function(spec.layer, getattr(owner, name),
                                         display, options, namespaces)

    def _patch_method(self, layer, cls, name, display, options) -> None:
        original = vars(cls)[name]
        if isinstance(original, (classmethod, staticmethod)):
            wrapper = type(original)(self.wrap(
                layer, display, original.__func__, **options))
        else:
            wrapper = self.wrap(layer, display, original, **options)
        setattr(cls, name, wrapper)
        self._patches.append((cls, name, original, wrapper))

    def _patch_function(self, layer, original, display, options,
                        namespaces) -> None:
        """Replace *original* at every name the program looks it up:
        module globals (``from x import f`` copies) and registry dicts
        such as ``BENCHMARKS[...]["run"]``."""
        wrapper = self.wrap(layer, display, original, **options)
        for namespace in namespaces:
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._patches.append((namespace, key, original, wrapper))

    def uninstall(self) -> None:
        """Put back the identical objects that were wrapped — including
        in modules imported (and so bound to a wrapper) after install."""
        by_wrapper = {id(wrapper): original
                      for _, _, original, wrapper in self._patches}
        for holder, name, original, _ in reversed(self._patches):
            if isinstance(holder, dict):
                holder[name] = original
            else:
                setattr(holder, name, original)
        for namespace in _namespaces():
            for key, value in list(namespace.items()):
                original = by_wrapper.get(id(value))
                if original is not None:
                    namespace[key] = original
        self._patches.clear()

    # -- recording -----------------------------------------------------------

    @contextmanager
    def root(self):
        """The pass itself, as the frame every other frame nests in."""
        frame = [ROOT_LAYER, 0.0, -1]
        self.stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            took = perf_counter() - start
            self.stack.pop()
            entry = self.totals.setdefault(
                (ROOT_LAYER, "pass"), {}).setdefault("", [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += took
            entry[2] += took - frame[1]

    def take(self) -> PassTrace:
        """Hand over what was recorded since the last take and reset,
        in place — the wrappers hold references to these containers."""
        taken = PassTrace(
            totals={key: {parent: list(entry)
                          for parent, entry in parents.items()}
                    for key, parents in self.totals.items() if parents},
            spans=[list(span) for span in self.spans],
            counters=dict(self.counters),
        )
        for parents in self.totals.values():
            parents.clear()
        del self.spans[:]
        self.counters.clear()
        return taken


def _namespaces() -> List[dict]:
    """Module globals of the program under test, plus the registry dicts
    (two levels deep) those globals hold."""
    found: List[dict] = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        namespace = vars(module)
        found.append(namespace)
        for value in list(namespace.values()):
            if isinstance(value, dict) and value is not namespace:
                found.append(value)
                found.extend(inner for inner in value.values()
                             if isinstance(inner, dict))
    return found


# -- the always-on disk meter ---------------------------------------------------


class DiskMeter:
    """Σ ``DiskStats`` over every ``SimulatedDisk`` created while installed.

    ``restore`` zeroes a disk's stats in place and ``replace_member``
    drops whole disks, so the counters are banked at ``restore`` and the
    stats objects (not the disks: a fingerprint pass builds thousands)
    are kept until :meth:`take`.
    """

    FIELDS = ("reads", "writes", "seeks", "busy_time_s")

    def __init__(self) -> None:
        self._live: List[Any] = []
        self._banked = [0, 0, 0, 0.0]
        self._originals: Optional[Tuple[Any, Any, Any]] = None

    def _bank(self, stats) -> None:
        banked = self._banked
        banked[0] += stats.reads
        banked[1] += stats.writes
        banked[2] += stats.seeks
        banked[3] += stats.busy_time_s

    def install(self) -> None:
        from repro.disk.disk import DiskStats, SimulatedDisk

        init, restore = SimulatedDisk.__init__, SimulatedDisk.restore
        live, bank = self._live, self._bank

        @functools.wraps(init)
        def metered_init(disk, *args, **kwargs):
            init(disk, *args, **kwargs)
            live.append(disk.stats)

        @functools.wraps(restore)
        def metered_restore(disk, snapshot):
            stats = disk.stats
            before = DiskStats(reads=stats.reads, writes=stats.writes,
                               seeks=stats.seeks,
                               busy_time_s=stats.busy_time_s)
            restore(disk, snapshot)
            bank(before)

        self._originals = (SimulatedDisk, init, restore)
        SimulatedDisk.__init__ = metered_init
        SimulatedDisk.restore = metered_restore

    def uninstall(self) -> None:
        cls, init, restore = self._originals
        cls.__init__, cls.restore = init, restore
        self._originals = None

    def take(self) -> Dict[str, float]:
        for stats in self._live:
            self._bank(stats)
        taken = dict(zip(self.FIELDS, self._banked))
        del self._live[:]
        self._banked[:] = [0, 0, 0, 0.0]
        return taken
