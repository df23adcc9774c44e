"""A test-side record of every request an array member takes.

Array members keep no I/O log of their own, so tests that pin or
compare member traffic watch it from outside: :class:`MemberRequests`
wraps ``FaultInjector.read_block`` / ``write_block`` and
``SimulatedDisk.read_blocks`` / ``write_blocks`` on the classes (so a
spare swapped in by ``ArrayMember.replace`` is seen too) and appends
``(op, block, outcome)`` per member request, in issue order.  A member
injector serves a vectored call as a clean run handed to its disk in
one call, then per-block requests; the disk-level wrapper expands the
run per block from the disk's own counters, so a vectored call is
recorded exactly as the per-block loop it stands for.  *outcome* is
``"ok"`` or the name of the exception the request raised.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.disk.disk import SimulatedDisk
from repro.disk.injector import FaultInjector

Request = Tuple[str, int, str]


class MemberRequests:
    def __init__(self, monkeypatch):
        self._members: List = []
        self._logs: Dict[int, List[Request]] = {}
        for op in ("read", "write"):
            monkeypatch.setattr(FaultInjector, f"{op}_block",
                                self._per_block(op))
            monkeypatch.setattr(SimulatedDisk, f"{op}_blocks",
                                self._vectored(op))

    def watch(self, array) -> None:
        """Record the requests of every member of *array* from now on."""
        for member in array.members:
            self._members.append(member)
            self._logs[id(member)] = []

    def of(self, member) -> List[Request]:
        return self._logs[id(member)]

    def drain(self, member) -> List[Request]:
        """The member's requests since the last drain."""
        log = self._logs[id(member)]
        taken = log[:]
        log.clear()
        return taken

    def _log_of(self, attr: str, device):
        for member in self._members:
            if getattr(member, attr) is device:
                return self._logs[id(member)]
        return None

    def _per_block(self, op: str):
        inner = getattr(FaultInjector, f"{op}_block")

        def wrapper(injector, block, *args):
            log = self._log_of("injector", injector)
            if log is None:
                return inner(injector, block, *args)
            try:
                result = inner(injector, block, *args)
            except Exception as exc:
                log.append((op, block, type(exc).__name__))
                raise
            log.append((op, block, "ok"))
            return result
        return wrapper

    def _vectored(self, op: str):
        inner = getattr(SimulatedDisk, f"{op}_blocks")
        counter = op + "s"

        def wrapper(disk, blocks, *args):
            log = self._log_of("disk", disk)
            if log is None:
                return inner(disk, blocks, *args)
            served = getattr(disk.stats, counter)
            try:
                result = inner(disk, blocks, *args)
            except Exception as exc:
                done = getattr(disk.stats, counter) - served
                log.extend((op, block, "ok") for block in blocks[:done])
                log.append((op, blocks[done], type(exc).__name__))
                raise
            log.extend((op, block, "ok") for block in blocks)
            return result
        return wrapper
