"""Project-wide symbol table and call graph.

The per-module checkers see one file at a time; the whole-program
checkers (security dataflow, global lock order, budget flow) need to
know *who calls whom* across the entire ``repro`` tree.  This module
builds that view from the already-parsed :class:`ModuleInfo` list:

* :class:`Project` — every class, method and module-level function,
  indexed by qualified name, plus per-module import resolution
  (``from repro.x import f`` / ``import repro.x as y`` / package
  ``__init__`` re-exports);
* :func:`Project.resolve_call` — best-effort resolution of one
  ``ast.Call`` to its target function(s) or class constructor;
* :class:`CallGraph` — every call site's resolved targets and the
  caller/callee adjacency, built once per project
  (:attr:`Project.call_graph`), plus a Tarjan SCC condensation giving a
  callee-first traversal order so dataflow summaries converge in one or
  two passes.

Resolution is deliberately *under*-approximate: an attribute call on an
unknown receiver resolves only when exactly one project class defines a
method of that name (and the name is not a common container method).
Unresolvable calls simply contribute no edges — the analyses built on
top document this as a false-negative, never a false-positive, source.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from repro.devtools.astutil import dotted_name, function_params
from repro.devtools.registry import ModuleInfo, module_dotted_name

#: Attribute-call names never resolved by the unique-method-name rule:
#: they collide with list/dict/set/str/queue/socket builtins, so a lone
#: project method of the same name would capture unrelated calls.
_AMBIGUOUS_METHODS = frozenset(
    {
        "append", "add", "extend", "insert", "remove", "discard", "pop",
        "clear", "update", "get", "put", "join", "split", "strip", "read",
        "write", "close", "open", "send", "recv", "items", "keys", "values",
        "copy", "index", "count", "sort", "reverse", "encode", "decode",
        "format", "replace", "setdefault", "popitem", "start", "stop",
        "run", "wait", "notify", "acquire", "release", "flush", "reset",
    }
)


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the project."""

    module: ModuleInfo
    node: ast.FunctionDef | ast.AsyncFunctionDef
    qualname: str
    class_name: str | None = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def params(self) -> tuple[ast.arg, ...]:
        """Named parameters, with a leading ``self``/``cls`` stripped."""
        params = function_params(self.node)
        if self.is_method and params and params[0].arg in ("self", "cls"):
            has_static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in self.node.decorator_list
            )
            if not has_static:
                params = params[1:]
        return tuple(params)

    def param_index(self, name: str) -> int | None:
        for index, param in enumerate(self.params):
            if param.arg == name:
                return index
        return None


@dataclass
class ClassInfo:
    """One class definition: its methods and (dataclass) fields."""

    module: ModuleInfo
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def init(self) -> FunctionInfo | None:
        return self.methods.get("__init__")

    def constructor_fields(self) -> tuple[str, ...]:
        """Field names a constructor call binds, in positional order.

        An explicit ``__init__`` wins; otherwise class-body annotated
        assignments (the dataclass field list) define the order.
        """
        init = self.init
        if init is not None:
            return tuple(param.arg for param in init.params)
        names = []
        for stmt in self.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                names.append(stmt.target.id)
        return tuple(names)


class Project:
    """Symbol table over a set of parsed modules."""

    def __init__(self, modules: Iterable[ModuleInfo]):
        self.modules: list[ModuleInfo] = list(modules)
        self.by_display: dict[str, ModuleInfo] = {
            module.display_path: module for module in self.modules
        }
        #: dotted module name → {symbol name → Function/ClassInfo}
        self._symbols: dict[str, dict[str, object]] = {}
        #: (display path, local alias) → dotted target ("repro.x.y" or
        #: "repro.x.y.symbol")
        self._imports: dict[tuple[str, str], str] = {}
        #: dotted module name → display paths of the modules carrying it
        self._paths_by_dotted: dict[str, list[str]] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, list[ClassInfo]] = {}
        self._methods_by_name: dict[str, list[FunctionInfo]] = {}
        self._collect()

    # -- construction ------------------------------------------------------

    def _collect(self) -> None:
        for module in self.modules:
            dotted = module.index.dotted_name
            table: dict[str, object] = {}
            for stmt in module.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = FunctionInfo(
                        module=module,
                        node=stmt,
                        qualname=f"{module.display_path}::{stmt.name}",
                    )
                    table[stmt.name] = info
                    self.functions[info.qualname] = info
                elif isinstance(stmt, ast.ClassDef):
                    cls = ClassInfo(module=module, node=stmt)
                    for member in stmt.body:
                        if isinstance(
                            member, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            info = FunctionInfo(
                                module=module,
                                node=member,
                                qualname=(
                                    f"{module.display_path}::"
                                    f"{stmt.name}.{member.name}"
                                ),
                                class_name=stmt.name,
                            )
                            cls.methods[member.name] = info
                            self.functions[info.qualname] = info
                            self._methods_by_name.setdefault(
                                member.name, []
                            ).append(info)
                    table[stmt.name] = cls
                    self.classes.setdefault(stmt.name, []).append(cls)
                elif isinstance(stmt, ast.Import):
                    for alias in stmt.names:
                        local = alias.asname or alias.name.split(".")[0]
                        target = alias.name if alias.asname else alias.name
                        self._imports[(module.display_path, local)] = target
                elif isinstance(stmt, ast.ImportFrom):
                    if stmt.module is None or stmt.level:
                        continue  # relative imports are not used in repro
                    for alias in stmt.names:
                        if alias.name == "*":
                            continue
                        local = alias.asname or alias.name
                        self._imports[(module.display_path, local)] = (
                            f"{stmt.module}.{alias.name}"
                        )
            if dotted is not None:
                self._symbols[dotted] = table
                self._paths_by_dotted.setdefault(dotted, []).append(
                    module.display_path
                )

    @cached_property
    def call_graph(self) -> "CallGraph":
        """The project's one call graph, built on first use."""
        return CallGraph(self)

    # -- resolution --------------------------------------------------------

    def class_named(self, name: str) -> ClassInfo | None:
        """The project class of that name, when unambiguous."""
        candidates = self.classes.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def _resolve_dotted(
        self, dotted: str, _depth: int = 0
    ) -> object | None:
        """``repro.x.y.symbol`` → symbol info, following re-exports."""
        if _depth > 4:
            return None
        module_part, _, symbol = dotted.rpartition(".")
        if not module_part:
            return None
        table = self._symbols.get(module_part)
        if table is not None:
            if symbol in table:
                return table[symbol]
            # Package __init__ re-export: follow its own import of the name.
            for path in self._paths_by_dotted.get(module_part, ()):
                onward = self._imports.get((path, symbol))
                if onward is not None:
                    return self._resolve_dotted(onward, _depth + 1)
        return None

    def resolve_name(self, name: str, module: ModuleInfo) -> object | None:
        """A bare name in ``module`` → Function/ClassInfo, if known."""
        dotted = module.index.dotted_name
        if dotted is not None:
            table = self._symbols.get(dotted, {})
            if name in table:
                return table[name]
        target = self._imports.get((module.display_path, name))
        if target is not None:
            return self._resolve_dotted(target)
        return None

    def resolve_call(
        self, call: ast.Call, scope: FunctionInfo
    ) -> list[object]:
        """Possible targets of ``call`` made inside ``scope``.

        Returns a (possibly empty) list of :class:`FunctionInfo` /
        :class:`ClassInfo` (constructor) entries.  Best-effort and
        under-approximate — see the module docstring.
        """
        func = call.func
        if isinstance(func, ast.Name):
            target = self.resolve_name(func.id, scope.module)
            return [target] if target is not None else []
        if not isinstance(func, ast.Attribute):
            return []
        method = func.attr
        receiver = func.value
        # self.m() / cls.m(): the enclosing class wins.
        if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
            if scope.class_name is not None:
                cls = self.class_named(scope.class_name)
                if cls is not None and method in cls.methods:
                    return [cls.methods[method]]
            return []
        # module_alias.f() via a plain or dotted import.
        receiver_dotted = dotted_name(receiver)
        if receiver_dotted is not None:
            root = receiver_dotted.split(".")[0]
            imported = self._imports.get((scope.module.display_path, root))
            if imported is not None:
                base = receiver_dotted.replace(root, imported, 1)
                resolved = self._resolve_dotted(f"{base}.{method}")
                if resolved is not None:
                    return [resolved]
            # ClassName.method(...) on an imported or local class.
            tail = receiver_dotted.rsplit(".", 1)[-1]
            named = self.resolve_name(tail, scope.module)
            if isinstance(named, ClassInfo) and method in named.methods:
                return [named.methods[method]]
        # Unknown receiver: unique project method name, if unambiguous.
        if method in _AMBIGUOUS_METHODS:
            return []
        candidates = self._methods_by_name.get(method, [])
        if len(candidates) == 1:
            return [candidates[0]]
        return []


@dataclass
class CallSite:
    """One resolved call: who calls whom, from which ``ast.Call``."""

    caller: FunctionInfo
    callee: FunctionInfo
    call: ast.Call


class CallGraph:
    """Resolved call sites and caller/callee adjacency over a
    :class:`Project`.

    Every call inside every project function is resolved exactly once,
    here; analyses read :meth:`targets` instead of resolving again.
    """

    def __init__(self, project: Project):
        self.project = project
        self.callees: dict[str, list[CallSite]] = {}
        self.callers: dict[str, list[CallSite]] = {}
        self._targets: dict[ast.Call, list[object]] = {}
        for info in project.functions.values():
            sites = []
            for node in info.module.index.nodes(ast.Call, within=info.node):
                targets = project.resolve_call(node, info)
                self._targets[node] = targets
                for target in targets:
                    if isinstance(target, ClassInfo):
                        target = target.init
                        if target is None:
                            continue
                    site = CallSite(caller=info, callee=target, call=node)
                    sites.append(site)
                    self.callers.setdefault(target.qualname, []).append(site)
            self.callees[info.qualname] = sites

    def targets(self, call: ast.Call) -> list[object]:
        """Resolved targets of one call inside a project function
        (:meth:`Project.resolve_call`'s answer, stored)."""
        return self._targets.get(call, [])

    def call_sites_of(self, qualname: str) -> list[CallSite]:
        """Every resolved call site targeting ``qualname``."""
        return self.callers.get(qualname, [])

    def callee_first_order(self) -> list[FunctionInfo]:
        """Functions ordered callees-before-callers (Tarjan SCC order)."""
        graph = {
            name: [site.callee.qualname for site in sites]
            for name, sites in self.callees.items()
        }
        functions = self.project.functions
        return [
            functions[name]
            for component in strongly_connected_components(graph)
            for name in component
            if name in functions
        ]


def strongly_connected_components(
    graph: Mapping[str, Sequence[str]],
) -> list[list[str]]:
    """Tarjan's strongly connected components of a digraph (iterative).

    Components come out in reverse topological order of the
    condensation — every component after the ones it reaches — which is
    exactly the order a bottom-up summary computation wants.
    """
    components: list[list[str]] = []
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []

    for root in graph:
        if root in index:
            continue
        # (node, successor position) work stack instead of recursion.
        work = [(root, 0)]
        while work:
            node, pos = work.pop()
            if pos == 0:
                index[node] = lowlink[node] = len(index)
                stack.append(node)
                on_stack.add(node)
            recurse = False
            successors = graph.get(node, ())
            for i in range(pos, len(successors)):
                succ = successors[i]
                if succ not in index:
                    work.append((node, i + 1))
                    work.append((succ, 0))
                    recurse = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def build_project(modules: Iterable[ModuleInfo]) -> Project:
    """Convenience constructor mirroring the checker-facing API."""
    return Project(modules)
