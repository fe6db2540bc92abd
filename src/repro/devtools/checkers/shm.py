"""Shared-memory hygiene checkers (FRQ-M9xx).

The shared-memory runtime concentrates every raw segment access in
:mod:`repro.runtime.shm.ring`: the SPSC ring's correctness rests on its
header-field ordering discipline, and a stray write from anywhere else
would corrupt a ring invisibly.  Leaked segments are the other failure
mode — a ``SharedMemory`` that is never closed keeps its mapping (and
file descriptor) alive, and a created segment that is never unlinked
outlives the process in ``/dev/shm``.

* ``FRQ-M901`` — a raw shared-memory buffer (``….buf``) is written
  outside ``runtime/shm/ring.py``;
* ``FRQ-M902`` — a module constructs ``SharedMemory`` but never calls
  ``.close()``;
* ``FRQ-M903`` — a module creates a segment (``create=True``) but never
  calls ``.unlink()``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.devtools.astutil import call_name, dotted_name, keyword_arg, self_attr
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import Checker, ModuleInfo, register

#: The one module allowed to touch raw segment bytes.
_RAW_BUF_MODULE = "runtime/shm/ring.py"

#: Receivers whose ``.buf`` attribute is a shared-memory mapping.
_SHM_NAME_RE = re.compile(r"(shm|shared|segment)", re.IGNORECASE)

_SHM_FACTORIES = {
    "SharedMemory",
    "shared_memory.SharedMemory",
    "multiprocessing.shared_memory.SharedMemory",
}


def _shm_buf_receiver(node: ast.expr) -> str | None:
    """The receiver name if ``node`` is ``<shm-like>.buf``, else None."""
    if not (isinstance(node, ast.Attribute) and node.attr == "buf"):
        return None
    receiver = self_attr(node.value)
    if receiver is None:
        receiver = dotted_name(node.value)
    if receiver is not None and _SHM_NAME_RE.search(receiver):
        return receiver
    return None


def _buf_write_targets(node: ast.AST) -> Iterator[tuple[ast.AST, str]]:
    """Raw-buffer write sites in a statement: subscript stores into
    ``….buf`` and ``pack_into``-style calls taking ``….buf`` first."""
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript):
                receiver = _shm_buf_receiver(target.value)
                if receiver is not None:
                    yield node, receiver
    if isinstance(node, ast.Call):
        name = (call_name(node) or "").rsplit(".", 1)[-1]
        if name == "pack_into":
            for arg in node.args:
                receiver = _shm_buf_receiver(arg)
                if receiver is not None:
                    yield node, receiver


@register
class SharedMemoryChecker(Checker):
    """Raw-buffer containment and segment lifecycle defects."""

    name = "shm"
    codes = {
        "FRQ-M901": (
            "raw shared-memory buffer written outside runtime/shm/ring.py"
        ),
        "FRQ-M902": "SharedMemory constructed but never close()d",
        "FRQ-M903": "SharedMemory created (create=True) but never unlink()ed",
    }

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        yield from self._check_raw_buf_writes(module)
        yield from self._check_lifecycle(module)

    # -- FRQ-M901 ----------------------------------------------------------

    def _check_raw_buf_writes(
        self, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        if module.is_module(_RAW_BUF_MODULE):
            return
        for node in module.index.nodes(ast.Assign, ast.AugAssign, ast.Call):
            for site, receiver in _buf_write_targets(node):
                yield self.diagnostic(
                    module,
                    site,
                    "FRQ-M901",
                    f"raw write into {receiver}.buf — all segment byte "
                    f"layout belongs to RingBuffer/StatsBlock in "
                    f"{_RAW_BUF_MODULE}; go through their APIs",
                )

    # -- FRQ-M902 / FRQ-M903 ----------------------------------------------

    def _check_lifecycle(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        constructions: list[ast.Call] = []
        creations: list[ast.Call] = []
        closed = unlinked = False
        for node in module.index.nodes(ast.Call):
            name = call_name(node)
            if name in _SHM_FACTORIES:
                constructions.append(node)
                create = keyword_arg(node, "create")
                if (
                    isinstance(create, ast.Constant)
                    and create.value is True
                ):
                    creations.append(node)
            elif isinstance(node.func, ast.Attribute):
                if node.func.attr == "close":
                    closed = True
                elif node.func.attr == "unlink":
                    unlinked = True
        if constructions and not closed:
            yield self.diagnostic(
                module,
                constructions[0],
                "FRQ-M902",
                "this module maps a SharedMemory segment but never calls "
                ".close() — the mapping (and fd) leaks for the process "
                "lifetime",
            )
        if creations and not unlinked:
            yield self.diagnostic(
                module,
                creations[0],
                "FRQ-M903",
                "this module creates a SharedMemory segment (create=True) "
                "but never calls .unlink() — the segment outlives the "
                "process in /dev/shm",
            )
