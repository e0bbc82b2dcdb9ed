"""Whole-program shard-safety analysis (rules VIA012+).

The per-file linter (:mod:`repro.staticcheck.rules`) can see one module
at a time; the shard/recovery plane's correctness contract is
cross-file.  A workload class defined in ``perf/scenarios.py`` is
pickled in the parent, shipped over a pipe, and rebuilt inside a forked
worker (``shard/supervisor.py``); a module-level counter incremented in
``substrates/phys/packet.py`` is forked into every worker; an obs
counter registered in ``obs/facade.py`` is bumped on the supervisor's
recovery path.  ``shardcheck`` builds the import graph, computes the
set of modules reachable from the shard worker entry points, and
checks four whole-program rules over that slice:

VIA012  pickle-boundary safety — every class that crosses an executor
        pipe (``ShardWorkload`` subclasses, classes marked
        ``__shard_boundary__ = True``, and classes composed into them)
        must be ``__slots__``-closed along its collected ancestry and
        must not assign statically-unpicklable fields (lambdas, open
        files, locks, sockets, generators).
VIA013  module-level mutable state in worker-reachable modules that is
        also mutated at runtime — after ``fork`` each worker owns a
        silently diverging copy.
VIA014  obs digest-hygiene — instruments touched inside the shard
        package must be registered (cross-checked against the
        ``self.x = r.counter("name", ...)`` sites in the obs facade)
        under a digest-excluded metric prefix.
VIA015  RNG seed discipline — ``random.Random(x)`` /
        ``np.random.default_rng(x)`` in worker-reachable code must
        derive ``x`` via ``derive_seed``.

Findings share the :class:`~repro.staticcheck.rules.Finding` shape, the
reporters, and the ``# via: ignore[VIA013] reason`` pragma grammar with
the per-file linter.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .engine import (LintError, iter_python_files, normalize_select,
                     suppressions)
from .rules import Finding, SHARD_RULES

#: Dotted call paths whose return values cannot cross a pickle boundary.
_UNPICKLABLE_CALLS = frozenset({
    "open", "io.open",
    "threading.Lock", "threading.RLock", "threading.Event",
    "threading.Condition", "threading.Semaphore",
    "multiprocessing.Pipe", "multiprocessing.Queue",
    "multiprocessing.Lock", "multiprocessing.Pool",
    "socket.socket",
})

#: Method names that mutate a container in place.
_MUTATING_METHODS = frozenset({
    "append", "extend", "add", "update", "setdefault", "insert",
    "remove", "discard", "pop", "popitem", "clear", "appendleft",
})

#: Constructors whose module-level result is mutable shared state.
_MUTABLE_FACTORIES = frozenset({
    "dict", "list", "set", "collections.defaultdict",
    "collections.deque", "collections.OrderedDict",
    "collections.Counter", "itertools.count",
})

_OBS_INSTRUMENT_FACTORIES = frozenset({"counter", "gauge", "histogram"})
_OBS_TOUCH_METHODS = frozenset({"inc", "observe", "set", "labels"})

_WORKLOAD_ROOT = "ShardWorkload"


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` attribute chains as a dotted string, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ClassInfo:
    """One collected class definition."""

    __slots__ = ("module", "name", "lineno", "col", "bases", "has_slots",
                 "fields", "boundary_marked")

    def __init__(self, module: str, name: str, node: ast.ClassDef):
        self.module = module
        self.name = name
        self.lineno = node.lineno
        self.col = node.col_offset
        self.bases: List[str] = [d for d in map(_dotted, node.bases) if d]
        self.has_slots = False
        #: (attr, value node, lineno, col) for ``self.x = ...`` and
        #: class-level assignments.
        self.fields: List[Tuple[str, ast.AST, int, int]] = []
        self.boundary_marked = False

    @property
    def dotted(self) -> str:
        return f"{self.module}.{self.name}"


class ModuleInfo:
    """One parsed module and the facts shardcheck needs from it."""

    __slots__ = ("name", "path", "source", "tree", "imports", "symbols",
                 "classes", "mutable_decls", "mutated_names",
                 "global_rebinds", "rng_calls", "obs_registrations",
                 "obs_touches", "digest_prefixes")

    def __init__(self, name: str, path: pathlib.Path, source: str,
                 tree: ast.Module):
        self.name = name
        self.path = path
        self.source = source
        self.tree = tree
        self.imports: Set[str] = set()
        #: local name -> dotted origin (``np`` -> ``numpy``).
        self.symbols: Dict[str, str] = {}
        self.classes: List[ClassInfo] = []
        #: module-level mutable binding -> (lineno, col).
        self.mutable_decls: Dict[str, Tuple[int, int]] = {}
        #: names mutated at runtime (from inside functions).
        self.mutated_names: Set[str] = set()
        #: names rebound via ``global`` -> first (lineno, col).
        self.global_rebinds: Dict[str, Tuple[int, int]] = {}
        #: (lineno, col, resolved ctor, seed-arg node or None).
        self.rng_calls: List[Tuple[int, int, str, Optional[ast.AST]]] = []
        #: instrument attr -> metric name.
        self.obs_registrations: Dict[str, str] = {}
        #: (attr, lineno, col).
        self.obs_touches: List[Tuple[str, int, int]] = []
        self.digest_prefixes: Optional[Tuple[str, ...]] = None

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        """Resolve a local dotted name through this module's imports."""
        if dotted is None:
            return None
        head, _, tail = dotted.partition(".")
        origin = self.symbols.get(head, head)
        return f"{origin}.{tail}" if tail else origin


def module_name_for(path: pathlib.Path) -> str:
    """Dotted module name, rooted at the outermost package directory."""
    path = path.resolve()
    parts = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) or path.stem


def _relative_base(module: str, is_package: bool, level: int) -> str:
    """The package a ``from ...x import y`` resolves against."""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop:
        parts = parts[:-drop] if drop < len(parts) else []
    return ".".join(parts)


class _ModuleCollector(ast.NodeVisitor):
    """Single pass that fills a :class:`ModuleInfo`."""

    def __init__(self, info: ModuleInfo, is_package: bool):
        self.info = info
        self.is_package = is_package
        self._class_stack: List[ClassInfo] = []
        self._func_depth = 0

    # -- imports -----------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.info.imports.add(alias.name)
            local = alias.asname or alias.name.partition(".")[0]
            self.info.symbols[local] = (alias.name if alias.asname
                                        else alias.name.partition(".")[0])
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            base = _relative_base(self.info.name, self.is_package,
                                  node.level)
            module = (f"{base}.{node.module}" if node.module and base
                      else (node.module or base))
        else:
            module = node.module or ""
        if module:
            self.info.imports.add(module)
            for alias in node.names:
                if alias.name == "*":
                    continue
                self.info.imports.add(f"{module}.{alias.name}")
                self.info.symbols[alias.asname or alias.name] = \
                    f"{module}.{alias.name}"
        self.generic_visit(node)

    # -- classes -----------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        info = ClassInfo(self.info.name, node.name, node)
        for stmt in node.body:
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "__slots__":
                    info.has_slots = True
                elif target.id == "__shard_boundary__":
                    value = stmt.value
                    info.boundary_marked = bool(
                        isinstance(value, ast.Constant) and value.value)
                else:
                    info.fields.append((target.id, stmt.value,
                                        stmt.lineno, stmt.col_offset))
        self.info.classes.append(info)
        self._class_stack.append(info)
        self.generic_visit(node)
        self._class_stack.pop()

    # -- functions: runtime context ----------------------------------------
    def _visit_function(self, node) -> None:
        assigned = {t.id for stmt in ast.walk(node)
                    for t in getattr(stmt, "targets", [])
                    if isinstance(t, ast.Name)}
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Global):
                for name in stmt.names:
                    if name in assigned:
                        self.info.global_rebinds.setdefault(
                            name, (stmt.lineno, stmt.col_offset))
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- assignments -------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if self._func_depth == 0 and not self._class_stack:
            for target in node.targets:
                if isinstance(target, ast.Name) \
                        and self._is_mutable_value(node.value):
                    self.info.mutable_decls.setdefault(
                        target.id, (node.lineno, node.col_offset))
        if self._class_stack and self._func_depth > 0:
            for target in node.targets:
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    self._class_stack[-1].fields.append(
                        (target.attr, node.value,
                         node.lineno, node.col_offset))
                    self._record_obs_registration(target.attr, node.value)
        if self._func_depth > 0:
            for target in node.targets:
                self._record_subscript_mutation(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._func_depth > 0:
            self._record_subscript_mutation(node.target)
        self.generic_visit(node)

    def _record_subscript_mutation(self, target: ast.AST) -> None:
        if isinstance(target, ast.Subscript) \
                and isinstance(target.value, ast.Name):
            self.info.mutated_names.add(target.value.id)

    def _is_mutable_value(self, value: ast.AST) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            resolved = self.info.resolve(_dotted(value.func))
            return resolved in _MUTABLE_FACTORIES
        return False

    def _record_obs_registration(self, attr: str, value: ast.AST) -> None:
        if not isinstance(value, ast.Call) \
                or not isinstance(value.func, ast.Attribute) \
                or value.func.attr not in _OBS_INSTRUMENT_FACTORIES:
            return
        if value.args and isinstance(value.args[0], ast.Constant) \
                and isinstance(value.args[0].value, str):
            self.info.obs_registrations[attr] = value.args[0].value

    # -- calls -------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.info.resolve(_dotted(node.func))
        if resolved == "importlib.import_module" and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            self.info.imports.add(node.args[0].value)
        if resolved in ("random.Random", "numpy.random.default_rng"):
            seed = node.args[0] if node.args else None
            self.info.rng_calls.append(
                (node.lineno, node.col_offset, resolved, seed))
        if self._func_depth > 0 and isinstance(node.func, ast.Name) \
                and node.func.id == "next" and node.args \
                and isinstance(node.args[0], ast.Name):
            self.info.mutated_names.add(node.args[0].id)
        if self._func_depth > 0 and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATING_METHODS \
                and isinstance(node.func.value, ast.Name):
            self.info.mutated_names.add(node.func.value.id)
        self._record_obs_touch(node)
        self.generic_visit(node)

    def _record_obs_touch(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _OBS_TOUCH_METHODS
                and isinstance(func.value, ast.Attribute)):
            return
        instrument = func.value
        receiver = instrument.value
        tail = (receiver.attr if isinstance(receiver, ast.Attribute)
                else receiver.id if isinstance(receiver, ast.Name)
                else None)
        if tail == "obs":
            self.info.obs_touches.append(
                (instrument.attr, node.lineno, node.col_offset))

    # -- module-level constants --------------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) \
                    and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and stmt.targets[0].id == "DIGEST_EXCLUDED_PREFIXES" \
                    and isinstance(stmt.value, ast.Tuple):
                values = [e.value for e in stmt.value.elts
                          if isinstance(e, ast.Constant)
                          and isinstance(e.value, str)]
                self.info.digest_prefixes = tuple(values)
        self.generic_visit(node)


class Program:
    """The parsed program: modules, import graph, class hierarchy."""

    def __init__(self, modules: Dict[str, ModuleInfo]):
        self.modules = modules
        self.classes: Dict[str, ClassInfo] = {
            c.dotted: c for m in modules.values() for c in m.classes}
        self.import_graph: Dict[str, Set[str]] = {
            name: self._edges(info) for name, info in modules.items()}

    def _edges(self, info: ModuleInfo) -> Set[str]:
        deps: Set[str] = set()
        for target in info.imports:
            resolved = self._resolve_module(target)
            if resolved and resolved != info.name:
                deps.add(resolved)
        return deps

    def _resolve_module(self, dotted: str) -> Optional[str]:
        """Longest collected-module prefix of ``dotted``."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate
        return None

    # -- class hierarchy ---------------------------------------------------
    def resolved_bases(self, cls: ClassInfo) -> List[str]:
        module = self.modules[cls.module]
        out = []
        for base in cls.bases:
            resolved = module.resolve(base)
            if resolved is None:
                continue
            if resolved not in self.classes \
                    and f"{cls.module}.{resolved}" in self.classes:
                resolved = f"{cls.module}.{resolved}"
            out.append(resolved)
        return out

    def workload_classes(self) -> Dict[str, ClassInfo]:
        """``ShardWorkload`` and every collected transitive subclass."""
        matched: Set[str] = {d for d in self.classes
                             if d.rsplit(".", 1)[-1] == _WORKLOAD_ROOT}
        changed = True
        while changed:
            changed = False
            for dotted, cls in self.classes.items():
                if dotted in matched:
                    continue
                for base in self.resolved_bases(cls):
                    if base in matched \
                            or base.rsplit(".", 1)[-1] == _WORKLOAD_ROOT:
                        matched.add(dotted)
                        changed = True
                        break
        return {d: self.classes[d] for d in matched if d in self.classes}

    def boundary_classes(self) -> Dict[str, ClassInfo]:
        """Classes that cross a pickle boundary (see module docstring)."""
        boundary = dict(self.workload_classes())
        boundary.update({d: c for d, c in self.classes.items()
                         if c.boundary_marked})
        # Composition closure: a class constructed into a boundary
        # class's field crosses the boundary with it.
        queue = list(boundary)
        while queue:
            cls = self.classes.get(queue.pop())
            if cls is None:
                continue
            module = self.modules[cls.module]
            for _attr, value, _line, _col in cls.fields:
                if not isinstance(value, ast.Call):
                    continue
                resolved = module.resolve(_dotted(value.func))
                if resolved and resolved not in self.classes \
                        and f"{cls.module}.{resolved}" in self.classes:
                    resolved = f"{cls.module}.{resolved}"
                if resolved in self.classes and resolved not in boundary:
                    boundary[resolved] = self.classes[resolved]
                    queue.append(resolved)
        return boundary

    # -- worker reachability ----------------------------------------------
    def entry_modules(self) -> Set[str]:
        entries = {name for name in self.modules
                   if tuple(name.split(".")[-2:]) in
                   (("shard", "executor"), ("shard", "supervisor"))}
        for cls in self.workload_classes().values():
            entries.add(cls.module)
        return entries

    def worker_reachable(self) -> Set[str]:
        """Modules whose code runs inside a forked shard worker."""
        seen: Set[str] = set()
        frontier = sorted(self.entry_modules())
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            frontier.extend(sorted(self.import_graph.get(name, ())
                                   - seen))
        return seen

    def shard_package_modules(self) -> Set[str]:
        """Modules of the shard package(s) holding the entry points."""
        packages = {name.rsplit(".", 1)[0]
                    for name in self.modules
                    if tuple(name.split(".")[-2:]) in
                    (("shard", "executor"), ("shard", "supervisor"))}
        return {name for name in self.modules
                if name.rsplit(".", 1)[0] in packages
                or name in packages}

    def digest_prefixes(self) -> Tuple[str, ...]:
        """The analyzed tree's ``DIGEST_EXCLUDED_PREFIXES``, or this
        package's own tuple when the tree defines none."""
        for info in self.modules.values():
            if info.digest_prefixes is not None:
                return info.digest_prefixes
        from ..obs.snapshot import DIGEST_EXCLUDED_PREFIXES
        return DIGEST_EXCLUDED_PREFIXES

    def obs_instrument_map(self) -> Dict[str, str]:
        merged: Dict[str, str] = {}
        for name in sorted(self.modules):
            merged.update(self.modules[name].obs_registrations)
        return merged


def load_program(paths: Sequence[str]) -> Program:
    """Parse every ``*.py`` under ``paths`` into a :class:`Program`."""
    modules: Dict[str, ModuleInfo] = {}
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"{path}: {exc}") from exc
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise LintError(
                f"{path}: {exc.msg} (line {exc.lineno})") from exc
        info = ModuleInfo(module_name_for(path), path, source, tree)
        _ModuleCollector(info, path.stem == "__init__").visit(tree)
        modules[info.name] = info
    return Program(modules)


# -- rule evaluation -------------------------------------------------------

def _slots_closed(program: Program, cls: ClassInfo,
                  seen: Optional[Set[str]] = None) -> bool:
    """True when the class and all collected ancestors define slots."""
    seen = seen or set()
    if cls.dotted in seen:
        return True
    seen.add(cls.dotted)
    if not cls.has_slots:
        return False
    for base in program.resolved_bases(cls):
        ancestor = program.classes.get(base)
        if ancestor is not None \
                and not _slots_closed(program, ancestor, seen):
            return False
    return True


def _check_pickle_boundary(program: Program) -> List[Finding]:
    findings = []
    for dotted in sorted(program.boundary_classes()):
        cls = program.classes[dotted]
        module = program.modules[cls.module]
        path = str(module.path)
        if not _slots_closed(program, cls):
            findings.append(Finding(
                path, cls.lineno, cls.col, "VIA012",
                f"{cls.name} crosses a shard pickle boundary but is not "
                f"__slots__-closed; add __slots__ to it (and every "
                f"ancestor) so replayed workers cannot grow a __dict__"))
        for attr, value, lineno, col in cls.fields:
            reason = None
            if isinstance(value, ast.Lambda):
                reason = "a lambda (unpicklable)"
            elif isinstance(value, ast.GeneratorExp):
                reason = "a generator (unpicklable)"
            elif isinstance(value, ast.Call):
                resolved = module.resolve(_dotted(value.func))
                if resolved in _UNPICKLABLE_CALLS:
                    reason = f"{resolved}() (unpicklable at the pipe)"
            if reason:
                findings.append(Finding(
                    path, lineno, col, "VIA012",
                    f"{cls.name}.{attr} holds {reason}; boundary-class "
                    f"fields must pickle"))
    return findings


def _check_mutable_globals(program: Program) -> List[Finding]:
    findings = []
    for name in sorted(program.worker_reachable()):
        info = program.modules[name]
        path = str(info.path)
        flagged: Set[str] = set()
        for binding, (lineno, col) in sorted(info.mutable_decls.items()):
            if binding in info.mutated_names \
                    or binding in info.global_rebinds:
                flagged.add(binding)
                findings.append(Finding(
                    path, lineno, col, "VIA013",
                    f"module-level mutable {binding!r} is mutated at "
                    f"runtime and reachable from shard workers; each "
                    f"forked worker mutates a diverging copy"))
        for binding, (lineno, col) in sorted(info.global_rebinds.items()):
            if binding not in flagged:
                findings.append(Finding(
                    path, lineno, col, "VIA013",
                    f"global {binding!r} is rebound at runtime in "
                    f"worker-reachable code; per-process copies diverge "
                    f"after fork"))
    return findings


def _check_digest_hygiene(program: Program) -> List[Finding]:
    findings = []
    instruments = program.obs_instrument_map()
    prefixes = program.digest_prefixes()
    for name in sorted(program.shard_package_modules()):
        info = program.modules[name]
        path = str(info.path)
        for attr, lineno, col in info.obs_touches:
            metric = instruments.get(attr)
            if metric is None:
                continue
            if not metric.startswith(prefixes):
                findings.append(Finding(
                    path, lineno, col, "VIA014",
                    f"recovery/supervision path touches obs instrument "
                    f"{attr!r} registered as {metric!r}, which is not "
                    f"digest-excluded (prefixes: "
                    f"{', '.join(prefixes)}); a worker restart would "
                    f"change the metrics digest"))
    return findings


def _is_derived_seed(module: ModuleInfo, seed: ast.AST) -> bool:
    if not isinstance(seed, ast.Call):
        return False
    resolved = module.resolve(_dotted(seed.func)) or ""
    return resolved.rsplit(".", 1)[-1] == "derive_seed"


def _check_rng_discipline(program: Program) -> List[Finding]:
    findings = []
    for name in sorted(program.worker_reachable()):
        info = program.modules[name]
        path = str(info.path)
        for lineno, col, ctor, seed in info.rng_calls:
            if seed is None:          # unseeded: per-file VIA007's job
                continue
            if not _is_derived_seed(info, seed):
                findings.append(Finding(
                    path, lineno, col, "VIA015",
                    f"{ctor}(...) in worker-reachable code must seed "
                    f"via derive_seed(master, stream) so shards draw "
                    f"from disjoint, master-seed-coupled streams"))
    return findings


def check_program(program: Program,
                  select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Run every VIA012+ rule; pragma-suppressed findings are dropped."""
    chosen = normalize_select(select) & frozenset(SHARD_RULES)
    findings = []
    findings.extend(_check_pickle_boundary(program))
    findings.extend(_check_mutable_globals(program))
    findings.extend(_check_digest_hygiene(program))
    findings.extend(_check_rng_discipline(program))
    silenced: Dict[str, Dict[int, frozenset]] = {}
    kept = []
    for finding in findings:
        if finding.rule_id not in chosen:
            continue
        if finding.path not in silenced:
            info = next(m for m in program.modules.values()
                        if str(m.path) == finding.path)
            silenced[finding.path] = suppressions(info.source, info.tree)
        if finding.rule_id in silenced[finding.path].get(
                finding.line, frozenset()):
            continue
        kept.append(finding)
    kept.sort()
    return kept


def shardcheck_paths(paths: Sequence[str],
                     select: Optional[Iterable[str]] = None
                     ) -> List[Finding]:
    """Analyze every module under ``paths``; returns sorted findings."""
    return check_program(load_program(paths), select)
