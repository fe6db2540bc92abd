"""Whole-program lock-order checker (FRQ-L10xx).

``FRQ-C103`` catches AB/BA deadlocks *within one module* by looking at
lexically nested ``with`` blocks.  The multiprocess/threaded runtime
spreads its locks across ``runtime/``, ``core/`` and ``durability/``,
and the dangerous inversions are exactly the ones C103 cannot see: the
dispatcher holds its lock and calls into the checking node, which takes
its own lock — while another thread does the reverse through a
different pair of methods, possibly in a different module.

``FRQ-L1001`` builds one *global* lock-acquisition graph over those
packages: nodes are locks identified class-wide (``Dispatcher._lock``)
or module-wide (``tcp.py:guard``), edges mean "acquired while holding".
Direct edges come from nested ``with`` blocks; *call* edges come from
the project call graph — while holding lock A, calling any function
whose transitive lock closure contains B adds ``A → B``.  Any cycle in
that graph is a potential deadlock under contention.

Pure same-module, direct-nesting AB/BA pairs are left to FRQ-C103 so
one defect never fires twice; everything L1001 reports crosses a
function or module boundary.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from repro.devtools.callgraph import (
    FunctionInfo,
    Project,
    strongly_connected_components,
)
from repro.devtools.checkers.concurrency import _LOCK_NAME_RE, class_lock_attrs
from repro.devtools.astutil import dotted_name, self_attr
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import ModuleInfo, ProjectChecker, register

#: Packages whose locks participate in the global graph.
_SCOPED_PACKAGES = ("runtime", "core", "durability")


@dataclass(frozen=True)
class LockEdge:
    """``outer`` held while ``inner`` is (or may be) acquired."""

    outer: str
    inner: str
    module: ModuleInfo
    node: ast.AST
    #: "direct" for nested ``with``; the callee name for call edges.
    via: str | None = None


def _in_scope(module: ModuleInfo) -> bool:
    return module.in_package(*_SCOPED_PACKAGES)


def _lock_attrs_of(project: Project, info: FunctionInfo) -> frozenset[str]:
    if info.class_name is None:
        return frozenset()
    cls = project.class_named(info.class_name)
    if cls is None:
        return frozenset()
    return class_lock_attrs(cls.module, cls.node)


def _global_label(
    expr: ast.expr, info: FunctionInfo, lock_attrs: frozenset[str]
) -> str | None:
    """Class- or module-wide identity of a lock expression."""
    attr = self_attr(expr)
    if attr is not None:
        if attr in lock_attrs or _LOCK_NAME_RE.search(attr):
            owner = info.class_name or "?"
            return f"{owner}.{attr}"
        return None
    name = dotted_name(expr)
    if name is not None and _LOCK_NAME_RE.search(name.rsplit(".", 1)[-1]):
        basename = info.module.display_path.rsplit("/", 1)[-1]
        return f"{basename}:{name}"
    return None


class _LockWalker(ast.NodeVisitor):
    """Collects held-lock nesting and calls-under-lock for one function."""

    def __init__(self, info: FunctionInfo, lock_attrs: frozenset[str]):
        self.info = info
        self.lock_attrs = lock_attrs
        self.held: list[str] = []
        self.acquired: set[str] = set()
        #: (outer, inner, with-node) direct nesting pairs.
        self.direct: list[tuple[str, str, ast.AST]] = []
        #: (held labels, call node) for calls made under at least one lock.
        self.calls_under_lock: list[tuple[tuple[str, ...], ast.Call]] = []

    def visit_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            label = _global_label(item.context_expr, self.info, self.lock_attrs)
            if label is not None:
                self.acquired.add(label)
                for outer in self.held:
                    self.direct.append((outer, label, node))
                acquired.append(label)
        self.held.extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        del self.held[len(self.held) - len(acquired) :]

    visit_AsyncWith = visit_With

    def visit_Call(self, node: ast.Call) -> None:
        if self.held:
            self.calls_under_lock.append((tuple(self.held), node))
        self.generic_visit(node)

    # Nested function bodies run on other frames/threads, later.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef


@register
class LockOrderChecker(ProjectChecker):
    """Global lock-acquisition graph with cycle detection."""

    name = "lock-order"
    codes = {
        "FRQ-L1001": (
            "locks acquired in a cyclic order across the call graph "
            "(whole-program deadlock risk)"
        ),
    }

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        graph = project.call_graph
        walkers: dict[str, _LockWalker] = {}
        for info in project.functions.values():
            if not _in_scope(info.module):
                continue
            walker = _LockWalker(info, _lock_attrs_of(project, info))
            for stmt in info.node.body:
                walker.visit(stmt)
            walkers[info.qualname] = walker

        # Transitive lock closure per function (callee-first fixed point).
        closure: dict[str, set[str]] = {
            name: set(walker.acquired) for name, walker in walkers.items()
        }
        order = [
            info
            for info in graph.callee_first_order()
            if info.qualname in walkers
        ]
        for _ in range(3):
            changed = False
            for info in order:
                mine = closure[info.qualname]
                before = len(mine)
                for site in graph.callees.get(info.qualname, []):
                    mine |= closure.get(site.callee.qualname, set())
                if len(mine) != before:
                    changed = True
            if not changed:
                break

        # Assemble the global edge set.
        edges: dict[tuple[str, str], LockEdge] = {}
        for name, walker in walkers.items():
            info = project.functions[name]
            for outer, inner, node in walker.direct:
                if outer != inner:
                    edges.setdefault(
                        (outer, inner),
                        LockEdge(outer, inner, info.module, node, via=None),
                    )
            for held, call in walker.calls_under_lock:
                for site in graph.callees.get(name, []):
                    if site.call is not call:
                        continue
                    callee_locks = closure.get(site.callee.qualname, set())
                    for outer in held:
                        for inner in callee_locks:
                            if outer == inner:
                                continue
                            edges.setdefault(
                                (outer, inner),
                                LockEdge(
                                    outer,
                                    inner,
                                    info.module,
                                    call,
                                    via=site.callee.name,
                                ),
                            )

        yield from self._report_cycles(edges)

    def _report_cycles(
        self, edges: dict[tuple[str, str], LockEdge]
    ) -> Iterable[Diagnostic]:
        adjacency: dict[str, list[str]] = {}
        for outer, inner in sorted(edges):
            adjacency.setdefault(outer, []).append(inner)
            adjacency.setdefault(inner, [])
        for component in strongly_connected_components(adjacency):
            if len(component) < 2:
                continue
            members = sorted(component)
            cycle_edges = [
                edge
                for (outer, inner), edge in sorted(edges.items())
                if outer in component and inner in component
            ]
            if not cycle_edges:
                continue
            if len(members) == 2 and all(
                edge.via is None for edge in cycle_edges
            ) and len({edge.module.display_path for edge in cycle_edges}) == 1:
                # Same-module direct AB/BA nesting: FRQ-C103's domain.
                continue
            anchor = cycle_edges[0]
            description = ", ".join(
                f"{edge.outer} -> {edge.inner}"
                + (f" (via {edge.via}())" if edge.via else "")
                + f" [{edge.module.display_path}:{edge.node.lineno}]"
                for edge in cycle_edges
            )
            yield self.diagnostic(
                anchor.module,
                anchor.node,
                "FRQ-L1001",
                f"lock-order cycle among {{{', '.join(members)}}}: "
                f"{description} — threads taking these locks in different "
                f"orders can deadlock",
            )
