"""Runtime fault-tolerance checkers (FRQ-R6xx).

* ``FRQ-R601`` — raw socket dial (``socket.create_connection``) in the
  ``runtime`` package outside the :class:`~repro.runtime.tcp.Router`
  class.  The router owns reconnect-with-backoff and dead-socket
  eviction; a bare dial elsewhere bypasses both, so a transient peer
  restart becomes a hard failure.  One-shot probes and control
  channels suppress inline with a justification.
* ``FRQ-R602`` — an ``except`` clause catching ``OSError`` (or a
  connection error subclass) whose body only swallows — ``pass``,
  ``return``/``return None``, ``continue``.  Transport errors in the
  runtime must be recorded (``node.errors``, a raised
  ``PeerUnavailable``) or retried, never dropped: a silently dead
  reader thread is exactly the bug class that loses frames without a
  trace.  Handlers guarding pure cleanup (``close()``/``shutdown()``
  try bodies) are exempt — failing to close an already-dead socket is
  not an event worth recording.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.devtools.astutil import call_name
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import Checker, ModuleInfo, register

#: Dial calls that must live inside the retrying Router.
_DIAL_CALLS = {"socket.create_connection", "create_connection"}

#: Exception names whose silent swallowing hides transport failures.
_TRANSPORT_EXCEPTIONS = {
    "OSError",
    "IOError",
    "socket.error",
    "ConnectionError",
    "ConnectionResetError",
    "ConnectionRefusedError",
    "ConnectionAbortedError",
    "BrokenPipeError",
    "TimeoutError",
    "socket.timeout",
}

#: Call suffixes that make a try body pure socket cleanup.
_CLEANUP_SUFFIXES = ("close", "shutdown")


def _exception_names(handler: ast.ExceptHandler) -> set[str]:
    """Dotted names of the exception classes a handler catches."""
    node = handler.type
    if node is None:
        return {"BaseException"}
    elements = node.elts if isinstance(node, ast.Tuple) else [node]
    names = set()
    for element in elements:
        name = call_name(ast.Call(func=element, args=[], keywords=[]))
        if name is not None:
            names.add(name)
    return names


def _only_swallows(body: list[ast.stmt]) -> bool:
    """Whether a handler body drops the error without recording it."""
    for statement in body:
        if isinstance(statement, (ast.Pass, ast.Continue)):
            continue
        if isinstance(statement, ast.Return):
            value = statement.value
            if value is None or (
                isinstance(value, ast.Constant) and value.value is None
            ):
                continue
            return False
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # docstring / stray literal
        return False
    return True


def _is_cleanup_try(try_node: ast.Try) -> bool:
    """Whether the try body is nothing but ``close()``/``shutdown()``
    calls (tearing down an already-dead socket may itself raise)."""
    for statement in try_node.body:
        if not isinstance(statement, ast.Expr):
            return False
        call = statement.value
        if not isinstance(call, ast.Call):
            return False
        name = call_name(call)
        if name is None or not name.endswith(_CLEANUP_SUFFIXES):
            return False
    return True


@register
class RuntimeChecker(Checker):
    """Keep the runtime's transport failures visible and retried."""

    name = "runtime"
    codes = {
        "FRQ-R601": "raw socket dial outside the retrying Router",
        "FRQ-R602": "transport error swallowed without being recorded",
    }

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        if not module.in_package("runtime"):
            return
        yield from self._check_raw_dials(module)
        yield from self._check_swallowed_errors(module)

    # -- FRQ-R601 ----------------------------------------------------------

    def _check_raw_dials(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        index = module.index
        router_calls = {
            call
            for cls in index.nodes(ast.ClassDef)
            if cls.name == "Router"
            for call in index.nodes(ast.Call, within=cls)
        }
        for node in index.nodes(ast.Call):
            if node in router_calls:
                continue
            if call_name(node) in _DIAL_CALLS:
                yield self.diagnostic(
                    module,
                    node,
                    "FRQ-R601",
                    "raw socket dial bypasses the Router's reconnect/"
                    "backoff and dead-socket eviction — route sends "
                    "through Router.send()",
                )

    # -- FRQ-R602 ----------------------------------------------------------

    def _check_swallowed_errors(
        self, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        for node in module.index.nodes(ast.Try):
            cleanup = _is_cleanup_try(node)
            for handler in node.handlers:
                if cleanup:
                    continue
                caught = _exception_names(handler)
                if not (caught & _TRANSPORT_EXCEPTIONS):
                    continue
                if _only_swallows(handler.body):
                    yield self.diagnostic(
                        module,
                        handler,
                        "FRQ-R602",
                        "transport error swallowed — record it "
                        "(node.errors / raise PeerUnavailable) or retry; "
                        "a silently dead reader loses frames without a "
                        "trace",
                    )
