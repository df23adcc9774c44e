#!/usr/bin/env python3
"""Keep the syscalls written once, and track source size.

``JournaledFS`` (``src/repro/fs/base.py``) holds the generic half of
every file system: the path walk, one framed entry point per syscall,
the namespace and data-path bodies behind them, the block-list
directory operations, and the ``unmount`` / ``statfs`` templates.  A file system that redefined one of them would
fork that code again — and, because ``FileSystem.__init_subclass__``
wraps every class-level definition of a syscall in a trace span, an
override that chained to the generic one would be traced twice.

This linter walks the AST of every module in the file-system packages
(``src/repro/fs/*/``) and fails when a class there defines one of the
generic-layer names outside ``ALLOWED_OVERRIDES``, when an allowed
override no longer exists, or when ``base.py`` does not define each
name exactly once.  What a file system *may* define is the primitive
protocol and the policy hooks documented on ``JournaledFS``.

The same rule holds one level down, for the arrays: ``ArrayDevice``
(``src/repro/redundancy/array.py``) holds the logical I/O, scrub,
rebuild, snapshot and recovery bodies once, over the per-geometry
hooks its docstring lists.  ``perf/trace.py`` wraps
``vars(ArrayDevice)[name]`` for the public ones, so a geometry that
redefined one would run untraced — and one that moved out of
``ArrayDevice`` would break the traced benchmark pass.

And one level further down, for the device stack: ``perf/trace.py``
patches ``BlockCache``, ``FaultInjector``, ``WriteRecorder``,
``DeviceStack`` and ``SimulatedDisk`` the same way, so each of them
must define, in its own class body, every name its ``Spec`` lists.
The names are read from ``SPECS`` by AST, never copied here.  Hoisting
``flush`` / ``snapshot`` / ``restore`` / ``stall`` into a shared
forwarding base class would therefore fail this lint instead of the
traced benchmark pass.

And for decode caches: a metadata decoder memoises through
``repro.common.structs.DecodeMemo``, which carries the rules that make
a payload-keyed memo sound (DESIGN.md, "Decode memo").  A module under
``src/repro/fs/`` that bound a module-level ``dict`` / ``OrderedDict``
of its own would be a second mechanism without them, so binding one
(an empty display, or a ``dict`` / ``OrderedDict`` / ``defaultdict``
call) fails here; a constant table written as a non-empty display is
not a cache and passes.

And for XOR: nearly all the cost of ``repro.common.xor.xor`` on a block
is converting its operands to and from integers, so a block that goes
through a chain of them is converted once per link.  Anywhere under
``src/repro``, an ``xor(...)`` call with an ``xor(...)`` argument, or
``name = xor(name, ...)`` inside a loop, fails here; collect the
operands and call ``xor_all`` (or ``xor_update`` for parity blocks that
follow one data block) instead.  And under ``src/repro/redundancy`` and
``src/repro/fs/ixt3``, any ``int.from_bytes(...)`` or ``.to_bytes(...)``
call fails: every block <-> integer conversion there goes through
``repro.common.xor`` (``as_int`` / ``as_block`` or the XOR kernels), so
it shares the table that converts each block once (DESIGN.md,
"Integer forms").

And for the worker pool: everything a pool task needs travels in its
pickled arguments (``repro.common.pool``).  Anywhere under
``src/repro``, importing ``multiprocessing.shared_memory`` or naming
``SharedMemory`` fails here, so a side channel with segment lifetimes
of its own does not come back.  And the pool has one consumer: the
fleet campaign, whose trials are large enough to repay a worker pool.
A whole fingerprint, crash, array or trace run costs less than starting
one (docs/performance.md), so a module under ``src/repro`` outside
``common/pool.py`` and ``fleet/`` that imports ``repro.common.pool``
fails here.

And for code deleted as history: ``SlabImage`` is read through
``block`` / ``view``, so defining ``__len__``, ``__getitem__``,
``__iter__`` or ``from_blocks`` on it (the list-of-blocks snapshot
protocol) fails here; and a scrub lives beside its means of recovery
(``Ixt3.scrub``, ``ArrayDevice.scrub``), so a class named ``Scrubber``
anywhere under ``src/repro`` fails too.

And for the Table-6 generators: ``src/repro/bench/workloads.py`` draws
only through its ``Tape`` class, which records each benchmark's draws
once and replays them for every variant.  A name bound by importing
``random`` or ``repro.common.rng`` (``_seeded_stream``,
``random_bytes``, ``random.Random``...), or the tape's fresh stream
``_recording``, used anywhere in that module outside ``class Tape``
fails here: such a draw would bypass the tape and its replay guard.

And for the block-type maps: a file system relearns its map at mount
but walks the on-disk structures only at the first query, over a frozen
view of the device, and mutations made before the walk wait in an
overlay (DESIGN.md, "Block-type maps on first use").  A write that
went straight to ``_types`` or ``_jtypes`` would bypass the overlay and
be lost when the walk lands, so anywhere under ``src/repro`` an
attribute named ``_types`` or ``_jtypes`` outside the type-map methods
of ``JournaledFS`` in ``fs/base.py`` fails here.

It then prints the source-line count (``wc -l``) of every package under
``src/repro``, so each CI run records how large the tree is; ``--loc-out
PATH`` also writes the table to a file for upload as an artifact.

Usage::

    python tools/lint_generic_ops.py [--loc-out PATH]
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FS_ROOT = ROOT / "src" / "repro" / "fs"

GENERIC_OPS = frozenset({
    "_lookup", "_do_creat",
    "creat", "open", "close", "read", "write", "truncate",
    "link", "unlink", "symlink", "readlink",
    "mkdir", "rmdir", "rename", "getdirentries",
    "stat", "lstat", "chmod", "chown", "utimes",
    "statfs", "unmount",
    "_do_read", "_do_write", "_do_truncate", "_do_symlink", "_do_mkdir",
    "_file_read", "_file_write", "_file_truncate",
    # The type-oracle memo: a file system supplies the walk and its key
    # (``_walk_types`` / ``_types_key``), never a rebuild of its own,
    # and reads and updates the maps through the type-map methods.
    "_rebuild_types", "_relearn_types", "_load_types", "_walk_memoised",
    "_drop_types",
    "_walk_key", "_type_of", "_jtype_of", "_set_type", "_forget_type",
    "_types_state", "_restore_types",
    # The block-list directory: a file system supplies the
    # ``_dir_block*`` primitives, never a scan, insert or remove.
    "_dir_entries", "_dir_find", "_dir_add", "_dir_remove",
    "_dir_set_dotdot", "_dir_create", "_stat_of",
})

#: The only overrides of a generic name.  ReiserFS keeps an object's
#: body whole in its tree — tail in a direct item, the rest behind
#: indirect items — and has no per-file block map, so it replaces the
#: three block-by-block loops that run beneath the shared ``_do_read``
#: / ``_do_write`` / ``_do_truncate`` prologue and epilogue.  None of
#: them is a syscall, so none is traced.  Its directory entries are
#: hashed items of the same tree — there is no per-directory block list
#: to scan — and ``stat`` reports the object id of a key pair, so it
#: keeps the seven directory operations as well.
ALLOWED_OVERRIDES = frozenset({
    # ReiserFS names its journal header ``j-header``; it renames the
    # role and hands it on to the base method.
    ("ReiserFS", "_set_jtype"),
    ("ReiserFS", "_file_read"),
    ("ReiserFS", "_file_write"),
    ("ReiserFS", "_file_truncate"),
    ("ReiserFS", "_dir_entries"),
    ("ReiserFS", "_dir_find"),
    ("ReiserFS", "_dir_add"),
    ("ReiserFS", "_dir_remove"),
    ("ReiserFS", "_dir_set_dotdot"),
    ("ReiserFS", "_dir_create"),
    ("ReiserFS", "_stat_of"),
})


ARRAY_MODULE = ROOT / "src" / "repro" / "redundancy" / "array.py"

#: Defined by ``ArrayDevice`` exactly once and by no other class in the
#: module: what ``perf/trace.py`` patches, plus the two recovery bodies
#: written over the geometries' ``_recover``.
ARRAY_GENERIC = frozenset({
    "read_block", "write_block", "scrub", "scrub_step", "rebuild_member",
    "snapshot", "restore", "_reconstruct", "_peek_logical",
})


PERF_TRACE = ROOT / "perf" / "trace.py"

#: The device-stack classes whose ``perf/trace.py`` specs are enforced.
STACK_CLASSES = frozenset({
    "BlockCache", "FaultInjector", "WriteRecorder", "DeviceStack",
    "SimulatedDisk",
})


def class_methods(path: Path):
    """Yield ``(class name, method name, line)`` for every method in *path*."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item.name, item.lineno


def lint() -> list[str]:
    problems = []
    base = [name for _, name, _ in class_methods(FS_ROOT / "base.py")]
    for op in sorted(GENERIC_OPS):
        if base.count(op) != 1:
            problems.append(
                f"src/repro/fs/base.py: {op} defined {base.count(op)} times, "
                "expected exactly once")
    unused = set(ALLOWED_OVERRIDES)
    for path in sorted(FS_ROOT.glob("*/*.py")):
        for cls, name, line in class_methods(path):
            if (cls, name) in ALLOWED_OVERRIDES:
                unused.discard((cls, name))
            elif name in GENERIC_OPS:
                problems.append(
                    f"{path.relative_to(ROOT)}:{line}: {cls}.{name} redefines a "
                    "generic op; implement a primitive or policy hook instead "
                    "(see JournaledFS)")
    problems.extend(f"tools/lint_generic_ops.py: allowed override {cls}.{name} "
                    "does not exist; drop it from ALLOWED_OVERRIDES"
                    for cls, name in sorted(unused))
    return (problems + lint_fs_caches() + lint_arrays() + lint_stack()
            + lint_xor_chains() + lint_shared_memory() + lint_pool_consumers()
            + lint_history_only() + lint_workload_draws() + lint_type_maps())


def lint_fs_caches() -> list[str]:
    problems = []
    for path in sorted(FS_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value      # None for a bare annotation
            if isinstance(value, ast.Call):
                func = value.func
                made = getattr(func, "id", getattr(func, "attr", ""))
                cache = made in ("dict", "OrderedDict", "defaultdict")
            else:
                cache = isinstance(value, ast.Dict) and not value.keys
            if cache:
                target = node.targets[0] if isinstance(node, ast.Assign) else node.target
                problems.append(
                    f"{path.relative_to(ROOT)}:{node.lineno}: module-level dict "
                    f"{ast.unparse(target)}; a decoder memoises through "
                    "repro.common.structs.DecodeMemo, not a cache of its own")
    return problems


def lint_arrays() -> list[str]:
    problems = []
    where = ARRAY_MODULE.relative_to(ROOT)
    methods = list(class_methods(ARRAY_MODULE))
    generic = [name for cls, name, _ in methods if cls == "ArrayDevice"]
    for op in sorted(ARRAY_GENERIC):
        if generic.count(op) != 1:
            problems.append(
                f"{where}: ArrayDevice.{op} defined {generic.count(op)} "
                "times, expected exactly once")
    problems.extend(
        f"{where}:{line}: {cls}.{name} redefines a generic array op; "
        "implement a geometry hook instead (see ArrayDevice)"
        for cls, name, line in methods
        if cls != "ArrayDevice" and name in ARRAY_GENERIC)
    return problems


def traced_specs():
    """Yield ``(module, class name, method names)`` for every entry of
    ``perf/trace.py``'s ``SPECS`` that names a class and spells its
    method names out as literals."""
    tree = ast.parse(PERF_TRACE.read_text(), filename=str(PERF_TRACE))
    specs = next(node.value for node in tree.body
                 if isinstance(node, ast.AnnAssign)
                 and getattr(node.target, "id", "") == "SPECS")
    for call in specs.elts:
        owner, names = call.args[1], call.args[2]
        if isinstance(owner, ast.Constant) and isinstance(names, ast.Tuple):
            module, _, cls = owner.value.partition(":")
            if cls:
                yield module, cls, ast.literal_eval(names)


def lint_stack() -> list[str]:
    problems = []
    missing = set(STACK_CLASSES)
    for module, cls, names in traced_specs():
        if cls not in STACK_CLASSES:
            continue
        missing.discard(cls)
        path = ROOT / "src" / (module.replace(".", "/") + ".py")
        own = [name for owner, name, _ in class_methods(path) if owner == cls]
        problems.extend(
            f"{path.relative_to(ROOT)}: {cls}.{name} defined "
            f"{own.count(name)} times in the class body, expected exactly "
            "once (perf/trace.py patches vars(cls)[name])"
            for name in names if own.count(name) != 1)
    problems.extend(
        f"{PERF_TRACE.relative_to(ROOT)}: no Spec for {cls}; drop it from "
        "STACK_CLASSES" for cls in sorted(missing))
    return problems


def _is_xor(node: ast.AST) -> bool:
    """Is *node* a call of ``xor`` (bare or as an attribute)?"""
    if not isinstance(node, ast.Call):
        return False
    return getattr(node.func, "id", getattr(node.func, "attr", "")) == "xor"


def _xor_chains(node: ast.AST, in_loop: bool = False):
    """Yield ``(line, why)`` for each chained ``xor`` under *node*.  A
    ``for`` or ``while`` statement puts everything in it ``in_loop``; a
    function, lambda or class body starts over."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda, ast.ClassDef)):
            yield from _xor_chains(child)
            continue
        if _is_xor(child) and any(_is_xor(arg) for arg in child.args):
            yield child.lineno, "xor(...) of an xor(...)"
        if (in_loop and isinstance(child, ast.Assign) and _is_xor(child.value)
                and len(child.targets) == 1
                and isinstance(child.targets[0], ast.Name)
                and any(isinstance(arg, ast.Name)
                        and arg.id == child.targets[0].id
                        for arg in child.value.args)):
            yield child.lineno, (f"{child.targets[0].id} = "
                                 f"xor({child.targets[0].id}, ...) in a loop")
        yield from _xor_chains(
            child, in_loop or isinstance(child, (ast.For, ast.While)))


#: Packages (under ``src/repro``) whose block <-> integer conversions all
#: go through ``repro.common.xor``.
CONVERSION_PACKAGES = ("redundancy/", "fs/ixt3/")


def _conversions(tree: ast.AST):
    """Yield ``(line, name)`` for each ``from_bytes`` / ``to_bytes`` call."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("from_bytes", "to_bytes")):
            yield node.lineno, node.func.attr


def lint_xor_chains() -> list[str]:
    problems = []
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        problems.extend(
            f"{path.relative_to(ROOT)}:{line}: {why} converts a block once "
            "per link; collect the operands for xor_all (or xor_update)"
            for line, why in _xor_chains(tree))
        if path.relative_to(src).as_posix().startswith(CONVERSION_PACKAGES):
            problems.extend(
                f"{path.relative_to(ROOT)}:{line}: {name}(...) converts a "
                "block outside repro.common.xor; use as_int / as_block so "
                "the integer-form table sees it"
                for line, name in _conversions(tree))
    return problems


#: Names that only the shared-memory side channel uses.
SHARED_MEMORY_NAMES = frozenset({"shared_memory", "SharedMemory"})


def _shared_memory_lines(tree: ast.AST):
    """Yield the line of each import of, or reference to, a name in
    ``SHARED_MEMORY_NAMES`` (dotted import paths count by component)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if any(SHARED_MEMORY_NAMES.intersection(name.split("."))
               for name in names):
            yield node.lineno


def lint_shared_memory() -> list[str]:
    problems = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        problems.extend(
            f"{path.relative_to(ROOT)}:{line}: shared memory; pool tasks "
            "take what they need in their pickled arguments"
            for line in sorted(set(_shared_memory_lines(tree))))
    return problems


POOL_MODULE = "repro.common.pool"


def _pool_import_lines(tree: ast.AST):
    """Yield the line of each import of ``repro.common.pool`` (as a
    module, or as ``pool`` from ``repro.common``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name == POOL_MODULE
                      or alias.name.startswith(POOL_MODULE + ".")
                      for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == POOL_MODULE or (
                node.module == "repro.common"
                and any(alias.name == "pool" for alias in node.names))
        else:
            continue
        if hit:
            yield node.lineno


def lint_pool_consumers() -> list[str]:
    problems = []
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        where = path.relative_to(src).as_posix()
        if where == "common/pool.py" or where.startswith("fleet/"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        problems.extend(
            f"{path.relative_to(ROOT)}:{line}: imports {POOL_MODULE}; only "
            "the fleet campaign fans out (docs/performance.md)"
            for line in _pool_import_lines(tree))
    return problems


#: ``SlabImage``'s deleted list-of-blocks protocol.
SLAB_LIST_PROTOCOL = frozenset({"__len__", "__getitem__", "__iter__",
                                "from_blocks"})


def _history_only(tree: ast.AST):
    """Yield ``(line, what)`` for each list-protocol name bound in a
    ``SlabImage`` class body and each class named ``Scrubber``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name == "Scrubber":
            yield node.lineno, "class Scrubber"
        elif node.name == "SlabImage":
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                elif isinstance(item, ast.Assign):
                    names = [getattr(t, "id", "") for t in item.targets]
                else:
                    continue
                for name in SLAB_LIST_PROTOCOL.intersection(names):
                    yield item.lineno, f"SlabImage.{name}"


def lint_history_only() -> list[str]:
    problems = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        problems.extend(
            f"{path.relative_to(ROOT)}:{line}: {what} was deleted as history; "
            + ("scrub with Ixt3.scrub or ArrayDevice.scrub"
               if what == "class Scrubber"
               else "read an image through block() / view()")
            for line, what in _history_only(tree))
    return problems


WORKLOADS_MODULE = ROOT / "src" / "repro" / "bench" / "workloads.py"
#: The one class of ``bench/workloads.py`` that may touch a random source.
TAPE_HELPER = "Tape"
RANDOM_MODULES = frozenset({"random", "repro.common.rng"})


def _untaped_draws(tree: ast.AST):
    """Yield ``(line, name)`` for each use, outside ``class Tape``, of a
    name bound by importing a module in ``RANDOM_MODULES`` (or anything
    from one), and of a ``_recording`` attribute."""
    sources = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            sources.update(alias.asname or alias.name for alias in node.names
                           if alias.name in RANDOM_MODULES)
        elif isinstance(node, ast.ImportFrom):
            sources.update(
                alias.asname or alias.name for alias in node.names
                if node.module in RANDOM_MODULES
                or f"{node.module}.{alias.name}" in RANDOM_MODULES)

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == TAPE_HELPER:
                continue
            if isinstance(child, ast.Attribute):
                if (child.attr == "_recording"
                        or ast.unparse(child.value) in sources):
                    yield child.lineno, ast.unparse(child)
                    continue
            elif isinstance(child, ast.Name) and child.id in sources:
                yield child.lineno, child.id
            yield from visit(child)

    yield from visit(tree)


def lint_workload_draws() -> list[str]:
    tree = ast.parse(WORKLOADS_MODULE.read_text(), filename=str(WORKLOADS_MODULE))
    return [f"{WORKLOADS_MODULE.relative_to(ROOT)}:{line}: {name} draws "
            f"outside the tape; generators draw through {TAPE_HELPER} "
            "(randrange / choice / payload)"
            for line, name in _untaped_draws(tree)]


#: Where the dynamic block-type maps may be touched: ``JournaledFS``'s
#: type-map methods, which keep a deferred walk's overlay in step.
TYPE_MAPS = frozenset({"_types", "_jtypes"})
TYPE_MAP_METHODS = frozenset({
    "__init__", "_relearn_types", "_load_types", "_drop_types", "_type_of",
    "_jtype_of", "_set_type", "_forget_type", "_set_jtype", "_types_state",
    "_restore_types",
})


def _type_map_uses(tree: ast.AST, allowed=frozenset()):
    """Yield ``(line, name)`` for each ``._types`` / ``._jtypes``
    attribute outside a ``JournaledFS`` method named in *allowed*."""
    exempt = {id(item) for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == "JournaledFS"
              for item in node.body
              if isinstance(item, ast.FunctionDef) and item.name in allowed}

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if id(child) in exempt:
                continue
            if isinstance(child, ast.Attribute) and child.attr in TYPE_MAPS:
                yield child.lineno, ast.unparse(child)
            yield from visit(child)

    yield from visit(tree)


def lint_type_maps() -> list[str]:
    problems = []
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = TYPE_MAP_METHODS if path == FS_ROOT / "base.py" else frozenset()
        problems.extend(
            f"{path.relative_to(ROOT)}:{line}: {name} outside the type-map "
            "methods of JournaledFS; use _type_of / _jtype_of / _set_type / "
            "_forget_type / _set_jtype / _types_state / _restore_types"
            for line, name in _type_map_uses(tree, allowed))
    return problems


def loc_table() -> str:
    """``wc -l`` of the ``*.py`` files in each package under ``src/repro``."""
    src = ROOT / "src" / "repro"
    counts: dict[str, int] = {}
    for path in sorted(src.rglob("*.py")):
        dirs = path.relative_to(src).parts[:-1]
        # One row per package; the file systems under fs/ get one each.
        package = "/".join(dirs[:2] if dirs[:1] == ("fs",) else dirs[:1]) or "(top level)"
        counts[package] = counts.get(package, 0) + path.read_bytes().count(b"\n")
    width = max(map(len, counts))
    rows = [f"{name:<{width}}  {lines:>6}" for name, lines in sorted(counts.items())]
    rows.append(f"{'total':<{width}}  {sum(counts.values()):>6}")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--loc-out", type=Path,
                        help="also write the source-LOC table to this file")
    args = parser.parse_args(argv)
    problems = lint()
    for problem in problems:
        print(problem, file=sys.stderr)
    table = loc_table()
    print("source lines (wc -l) per package under src/repro:")
    print(table)
    if args.loc_out:
        args.loc_out.write_text(table + "\n")
    if problems:
        print(f"{len(problems)} violation(s)", file=sys.stderr)
        return 1
    print("generic ops: each defined once, in JournaledFS and ArrayDevice; "
          "device-stack layers define every name perf/trace.py patches; "
          "no private decode cache under src/repro/fs; no chained xor; "
          "block <-> int conversions in arrays and ixt3 go through "
          "repro.common.xor; "
          "no shared memory; the pool's one consumer is the fleet; "
          "no list-form SlabImage or standalone Scrubber; "
          "Table-6 generators draw only through their tape; "
          "block-type maps change only in JournaledFS's type-map methods")
    return 0


if __name__ == "__main__":
    sys.exit(main())
