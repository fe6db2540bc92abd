"""Checker protocol and the pluggable checker registry.

A checker is a class with a ``codes`` table (diagnostic code → one-line
description) and a ``check(module)`` generator.  Registering is one
decorator::

    @register
    class MyChecker(Checker):
        name = "my-family"
        codes = {"FRQ-Z901": "something the repo must never do"}

        def check(self, module):
            ...

The CLI instantiates every registered checker and feeds it each parsed
module; path-scoped rules use :meth:`ModuleInfo.in_package`, and node
lookups go through the shared :attr:`ModuleInfo.index`.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.devtools.diagnostics import Diagnostic

#: Nodes that enclose the nodes below them (see :class:`ModuleIndex`).
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def module_dotted_name(display_path: str) -> str | None:
    """Dotted import path for a repo display path, or ``None``.

    ``src/repro/records/serialize.py`` → ``repro.records.serialize``;
    package ``__init__.py`` files map to the package itself.
    """
    parts = list(Path(display_path).parts)
    if "repro" not in parts:
        return None
    parts = parts[parts.index("repro") :]
    if not parts[-1].endswith(".py"):
        return None
    leaf = parts[-1][: -len(".py")]
    parts = parts[:-1] if leaf == "__init__" else parts[:-1] + [leaf]
    return ".".join(parts)


class ModuleIndex:
    """One module's nodes, grouped once so checkers never re-walk trees.

    Built in a single ``ast.walk``-order pass over the tree: every node
    is filed under its type and under its enclosing definition (the
    innermost function or class whose subtree holds it — a definition
    encloses its own decorators and defaults, and itself).  Queries are
    memoised and return shared tuples.
    """

    def __init__(self, tree: ast.Module, display_path: str):
        self.tree = tree
        #: Dotted import name of the module (``None`` outside ``repro``).
        self.dotted_name = module_dotted_name(display_path)
        self._order: list[ast.AST] = []
        #: enclosing definition (or the tree) → node type → walk positions
        self._local: dict[ast.AST, dict[type, list[int]]] = {}
        #: definition (or the tree) → the definitions directly inside it
        self._inner: dict[ast.AST, list[ast.AST]] = {}
        self._memo: dict = {}
        queue = deque([(tree, tree)])
        while queue:
            node, owner = queue.popleft()
            if isinstance(node, _DEFINITIONS):
                self._inner.setdefault(owner, []).append(node)
                owner = node
            self._local.setdefault(owner, {}).setdefault(
                type(node), []
            ).append(len(self._order))
            self._order.append(node)
            queue.extend(
                (child, owner) for child in ast.iter_child_nodes(node)
            )

    def nodes(
        self, *types: type, within: ast.AST | None = None
    ) -> tuple[ast.AST, ...]:
        """Nodes of ``types`` in ``ast.walk`` order.

        Exactly ``[n for n in ast.walk(root) if isinstance(n, types)]``,
        where ``root`` is ``within`` — a function or class of this
        module — or the whole module when ``within`` is omitted.
        """
        root = self.tree if within is None else within
        if root not in self._local:
            raise ValueError("within must be a function or class here")
        return self.memo(
            (types, root), lambda: self._collect(types, root)
        )

    def functions(
        self, within: ast.AST | None = None
    ) -> tuple[ast.FunctionDef | ast.AsyncFunctionDef, ...]:
        """Every (nested) function definition, in ``ast.walk`` order."""
        return self.nodes(ast.FunctionDef, ast.AsyncFunctionDef, within=within)

    def memo(self, key, build: Callable[[], object]):
        """``build()``'s result, computed once per ``key`` per module."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def _collect(self, types: tuple[type, ...], root: ast.AST) -> tuple:
        positions: list[int] = []
        pending = [root]
        while pending:
            owner = pending.pop()
            for node_type, found in self._local[owner].items():
                if issubclass(node_type, types):
                    positions.extend(found)
            pending.extend(self._inner.get(owner, ()))
        positions.sort()
        return tuple(self._order[position] for position in positions)


@dataclass
class ModuleInfo:
    """One parsed source module handed to every checker.

    Parameters
    ----------
    path:
        Filesystem path of the module.
    display_path:
        The (usually repo-relative, posix-style) path used in diagnostics
        and baseline entries.
    tree:
        Parsed ``ast.Module``.
    source_lines:
        Source split into lines (for suppression directives).
    """

    path: Path
    display_path: str
    tree: ast.Module
    source_lines: list[str] = field(default_factory=list)

    @cached_property
    def index(self) -> ModuleIndex:
        """The module's node index, built from ``tree`` on first use."""
        return ModuleIndex(self.tree, self.display_path)

    @property
    def package_parts(self) -> tuple[str, ...]:
        """Path segments below the ``repro`` package root.

        For ``src/repro/crypto/cipher.py`` this is ``("crypto",
        "cipher.py")``; for paths outside a ``repro`` tree it falls back
        to the display path's own segments, so path-scoped checkers still
        behave sensibly on fixture files.
        """
        parts = Path(self.display_path).parts
        if "repro" in parts:
            return tuple(parts[parts.index("repro") + 1 :])
        return tuple(parts)

    def in_package(self, *names: str) -> bool:
        """Whether the module lives under any of the given subpackages."""
        parts = self.package_parts
        return any(name in parts[:-1] for name in names)

    def is_module(self, *relpaths: str) -> bool:
        """Whether the module is exactly one of ``repro``-relative paths
        such as ``"core/config.py"``."""
        joined = "/".join(self.package_parts)
        return joined in relpaths


class BaseChecker(ABC):
    """Shared surface of module- and project-scoped checkers."""

    #: Short family name (used by ``--list-codes``).
    name: str = ""

    #: Diagnostic code → one-line description.
    codes: dict[str, str] = {}

    def diagnostic(
        self, module: ModuleInfo, node: ast.AST, code: str, message: str
    ) -> Diagnostic:
        """Build a diagnostic anchored at ``node``."""
        if code not in self.codes:
            raise ValueError(f"{type(self).__name__} does not own code {code}")
        return Diagnostic(
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )


class Checker(BaseChecker):
    """Base class for one per-module diagnostic family."""

    @abstractmethod
    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        """Yield diagnostics for one module."""


class ProjectChecker(BaseChecker):
    """Base class for one whole-program diagnostic family.

    Runs once per lint invocation over the
    :class:`~repro.devtools.callgraph.Project` built from every module
    on the command line, instead of once per module.  Diagnostics may
    land in any of the project's modules.
    """

    @abstractmethod
    def check_project(self, project) -> Iterable[Diagnostic]:
        """Yield diagnostics for the whole project."""


_CHECKERS: list[type[BaseChecker]] = []


def register(cls: type[BaseChecker]) -> type[BaseChecker]:
    """Class decorator adding a checker to the global registry."""
    duplicate = set(cls.codes) & {
        code for existing in _CHECKERS for code in existing.codes
    }
    if duplicate:
        raise ValueError(f"diagnostic codes already registered: {duplicate}")
    _CHECKERS.append(cls)
    return cls


def all_checkers() -> list[Checker]:
    """Fresh instances of every per-module checker (importing built-ins)."""
    # Importing the package registers the built-in checker families.
    import repro.devtools.checkers  # noqa: F401

    return [cls() for cls in _CHECKERS if issubclass(cls, Checker)]


def all_project_checkers() -> list[ProjectChecker]:
    """Fresh instances of every whole-program checker."""
    import repro.devtools.checkers  # noqa: F401

    return [cls() for cls in _CHECKERS if issubclass(cls, ProjectChecker)]


def all_codes() -> dict[str, tuple[str, str]]:
    """Every known code → (family name, description)."""
    import repro.devtools.checkers  # noqa: F401

    return {
        code: (cls.name, description)
        for cls in _CHECKERS
        for code, description in cls.codes.items()
    }


def iter_diagnostics(
    checkers: Iterable[Checker], module: ModuleInfo
) -> Iterator[Diagnostic]:
    """Run every checker over one module."""
    for checker in checkers:
        yield from checker.check(module)
