"""Concurrency checkers (FRQ-C1xx).

FRESQUE's throughput claim rests on parser/encrypter threads sharing as
little as possible (paper Section 4.1: computing nodes work
shared-nothing; only the dispatcher/checker touch shared state).  These
checkers target the three defect classes that repeatedly bite this
architecture:

* ``FRQ-C101`` — an attribute mutated from a ``threading.Thread`` target
  without holding the owning object's lock;
* ``FRQ-C102`` — a blocking call (socket dial/recv, queue get/put,
  ``time.sleep``, thread join) made while a lock is held, serializing
  every other thread behind I/O;
* ``FRQ-C103`` — two locks acquired in opposite orders somewhere in the
  same module (classic AB/BA deadlock).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.devtools.astutil import call_name, dotted_name, keyword_arg, self_attr
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import Checker, ModuleInfo, register

#: Constructors whose result is treated as a lock object.
_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "Lock",
    "RLock",
    "Condition",
}

#: Names that look like a lock even without seeing the constructor.
_LOCK_NAME_RE = re.compile(r"(^|_)(lock|guard|mutex)s?$", re.IGNORECASE)

#: Module-level calls that block the calling thread.
_BLOCKING_CALLS = {
    "time.sleep",
    "socket.create_connection",
}

#: Method names that block when invoked on a socket-like receiver.
_BLOCKING_SOCKET_METHODS = {"accept", "recv", "connect", "sendall", "send"}

#: Method names that block on queue-like receivers.
_BLOCKING_QUEUE_METHODS = {"get", "put"}

_QUEUE_NAME_RE = re.compile(r"(queue|inbox|outbox|channel)", re.IGNORECASE)
_THREAD_NAME_RE = re.compile(r"(thread|worker|acceptor|reader)", re.IGNORECASE)
_SOCKET_NAME_RE = re.compile(
    r"(sock|socket|conn|connection|server|client)", re.IGNORECASE
)


def _is_lock_expr(node: ast.expr, lock_attrs: set[str]) -> bool:
    """Whether a ``with``-item context expression is a lock."""
    attr = self_attr(node)
    if attr is not None:
        return attr in lock_attrs or bool(_LOCK_NAME_RE.search(attr))
    name = dotted_name(node)
    if name is not None:
        return bool(_LOCK_NAME_RE.search(name.rsplit(".", 1)[-1]))
    return False


def _lock_label(node: ast.expr) -> str:
    """Stable label for a lock expression, for C103 graph nodes."""
    attr = self_attr(node)
    if attr is not None:
        return f"self.{attr}"
    return dotted_name(node) or "<lock>"


def class_lock_attrs(module: ModuleInfo, cls: ast.ClassDef) -> frozenset[str]:
    """``self.X`` attributes assigned a lock constructor anywhere in
    ``cls`` (computed once per class; the lock-order checker shares it)."""

    def collect() -> frozenset[str]:
        lock_attrs: set[str] = set()
        for node in module.index.nodes(ast.Assign, within=cls):
            if (
                isinstance(node.value, ast.Call)
                and call_name(node.value) in _LOCK_FACTORIES
            ):
                for target in node.targets:
                    attr = self_attr(target)
                    if attr is not None:
                        lock_attrs.add(attr)
        return frozenset(lock_attrs)

    return module.index.memo(("lock-attrs", cls), collect)


def _thread_target_methods(module: ModuleInfo, cls: ast.ClassDef) -> set[str]:
    """Methods of ``cls`` passed as ``threading.Thread(target=self.m)``."""
    targets: set[str] = set()
    for node in module.index.nodes(ast.Call, within=cls):
        if call_name(node) in ("threading.Thread", "Thread"):
            target = keyword_arg(node, "target")
            if target is not None:
                attr = self_attr(target)
                if attr is not None:
                    targets.add(attr)
    return targets


def _method_call_closure(
    module: ModuleInfo, cls: ast.ClassDef, roots: set[str]
) -> set[str]:
    """Method names reachable from ``roots`` via ``self.m()`` calls."""
    methods = {
        stmt.name: stmt
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    reachable = set()
    frontier = [name for name in roots if name in methods]
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        for node in module.index.nodes(ast.Call, within=methods[name]):
            callee = self_attr(node.func)
            if callee in methods and callee not in reachable:
                frontier.append(callee)
    return reachable


class _HeldLockVisitor(ast.NodeVisitor):
    """Walk a function body tracking the stack of held locks."""

    def __init__(self, lock_attrs: frozenset[str]):
        self.lock_attrs = lock_attrs
        self.held: list[ast.expr] = []
        #: (node, held-lock labels) for every visited statement/expr.
        self.events: list[tuple[ast.AST, tuple[str, ...]]] = []
        #: Observed (outer label, inner label) acquisition edges.
        self.edges: list[tuple[str, str, ast.With]] = []

    def visit_With(self, node: ast.With) -> None:
        acquired: list[ast.expr] = []
        for item in node.items:
            if _is_lock_expr(item.context_expr, self.lock_attrs):
                inner = _lock_label(item.context_expr)
                for outer_expr in self.held:
                    self.edges.append((_lock_label(outer_expr), inner, node))
                acquired.append(item.context_expr)
        self.held.extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        del self.held[len(self.held) - len(acquired) :]

    def generic_visit(self, node: ast.AST) -> None:
        if self.held:
            self.events.append(
                (node, tuple(_lock_label(expr) for expr in self.held))
            )
        super().generic_visit(node)

    # Do not descend into nested function definitions: their bodies run
    # later, not while the lock is held.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef


def _held_locks(
    function: ast.AST, lock_attrs: frozenset[str]
) -> _HeldLockVisitor:
    """The held-lock events and nesting edges of one function body."""
    visitor = _HeldLockVisitor(lock_attrs)
    for stmt in function.body:
        visitor.visit(stmt)
    return visitor


def _blocking_reason(call: ast.Call) -> str | None:
    """Why ``call`` blocks the calling thread, or ``None``."""
    name = call_name(call)
    if name in _BLOCKING_CALLS:
        return f"blocking call {name}()"
    if isinstance(call.func, ast.Attribute):
        method = call.func.attr
        receiver = call.func.value
        if isinstance(receiver, ast.Constant):
            return None  # e.g. ", ".join(...)
        receiver_name = (dotted_name(receiver) or "").rsplit(".", 1)[-1]
        if method in _BLOCKING_SOCKET_METHODS and _SOCKET_NAME_RE.search(
            receiver_name
        ):
            return f"blocking socket call .{method}() on {receiver_name!r}"
        if method in _BLOCKING_QUEUE_METHODS and _QUEUE_NAME_RE.search(
            receiver_name
        ):
            return f"blocking queue call .{method}() on {receiver_name!r}"
        if method == "join" and _THREAD_NAME_RE.search(receiver_name):
            return f"blocking .join() on {receiver_name!r}"
    return None


@register
class ConcurrencyChecker(Checker):
    """Shared-state and lock-discipline defects."""

    name = "concurrency"
    codes = {
        "FRQ-C101": (
            "attribute mutated from a thread target without the owning "
            "object's lock"
        ),
        "FRQ-C102": "blocking call made while a lock is held",
        "FRQ-C103": "locks acquired in conflicting orders (deadlock risk)",
    }

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        classes = [n for n in module.tree.body if isinstance(n, ast.ClassDef)]
        for node in classes:
            yield from self._check_class(module, node)
        lock_attrs = frozenset().union(
            *(class_lock_attrs(module, node) for node in classes)
        )
        walks = [
            _held_locks(function, lock_attrs)
            for function in module.index.functions()
        ]
        yield from self._check_lock_order(module, walks)
        yield from self._check_blocking_under_lock(module, walks)

    # -- FRQ-C101 ----------------------------------------------------------

    def _check_class(
        self, module: ModuleInfo, cls: ast.ClassDef
    ) -> Iterator[Diagnostic]:
        thread_targets = _thread_target_methods(module, cls)
        if not thread_targets:
            return
        lock_attrs = class_lock_attrs(module, cls)
        reachable = _method_call_closure(module, cls, thread_targets)
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for name in sorted(reachable):
            method = methods[name]
            if name == "__init__":
                continue
            guarded = {
                node for node, _ in _held_locks(method, lock_attrs).events
            }
            for stmt in module.index.nodes(
                ast.Assign, ast.AugAssign, within=method
            ):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    attr = self_attr(target)
                    if attr is None or attr in lock_attrs or stmt in guarded:
                        continue
                    yield self.diagnostic(
                        module,
                        stmt,
                        "FRQ-C101",
                        f"self.{attr} is mutated in {cls.name}.{name}(), "
                        f"which runs on a threading.Thread target, "
                        f"without holding a lock of {cls.name}",
                    )

    # -- FRQ-C102 ----------------------------------------------------------

    def _check_blocking_under_lock(
        self, module: ModuleInfo, walks: list[_HeldLockVisitor]
    ) -> Iterator[Diagnostic]:
        for visitor in walks:
            for node, held in visitor.events:
                if isinstance(node, ast.Call):
                    reason = _blocking_reason(node)
                    if reason is not None:
                        yield self.diagnostic(
                            module,
                            node,
                            "FRQ-C102",
                            f"{reason} while holding {', '.join(held)} — "
                            f"every other thread contending on the lock "
                            f"stalls behind this I/O",
                        )

    # -- FRQ-C103 ----------------------------------------------------------

    def _check_lock_order(
        self, module: ModuleInfo, walks: list[_HeldLockVisitor]
    ) -> Iterator[Diagnostic]:
        edges: dict[str, set[str]] = {}
        sites: dict[tuple[str, str], ast.With] = {}
        for visitor in walks:
            for outer, inner, node in visitor.edges:
                if outer == inner:
                    continue
                edges.setdefault(outer, set()).add(inner)
                sites.setdefault((outer, inner), node)
        reported: set[frozenset[str]] = set()
        for outer, inners in edges.items():
            for inner in inners:
                if outer in edges.get(inner, set()):
                    pair = frozenset((outer, inner))
                    if pair in reported:
                        continue
                    reported.add(pair)
                    node = sites[(outer, inner)]
                    yield self.diagnostic(
                        module,
                        node,
                        "FRQ-C103",
                        f"{outer} and {inner} are each acquired while "
                        f"holding the other — AB/BA deadlock under "
                        f"contention",
                    )
