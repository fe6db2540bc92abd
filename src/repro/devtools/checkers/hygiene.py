"""Repo-tuned hygiene checkers (FRQ-H4xx).

* ``FRQ-H401`` — a bare ``except:`` (or ``except Exception: pass``)
  swallows the checker/merger invariant violations the tests rely on
  surfacing;
* ``FRQ-H402`` — mutable default arguments (shared across calls);
* ``FRQ-H403`` — nondeterminism in ``simulation/``: wall-clock reads and
  unseeded global ``random`` make the paper-figure reproductions
  non-replayable, defeating their purpose.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.devtools.astutil import call_name
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import Checker, ModuleInfo, register

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set)
_MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray"}
_WALLCLOCK_CALLS = {
    "time.time",
    "time.perf_counter",
    "time.monotonic",
    "datetime.now",
    "datetime.datetime.now",
}
#: Global (module-level, implicitly seeded) random functions.
_GLOBAL_RANDOM_CALLS = {
    "random.random",
    "random.randint",
    "random.randrange",
    "random.choice",
    "random.choices",
    "random.shuffle",
    "random.uniform",
    "random.gauss",
    "random.sample",
    "random.seed",
}


@register
class HygieneChecker(Checker):
    """Error-handling and determinism hygiene."""

    name = "hygiene"
    codes = {
        "FRQ-H401": "bare or swallowed exception handler",
        "FRQ-H402": "mutable default argument",
        "FRQ-H403": "nondeterministic call in simulation code",
    }

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        yield from self._check_handlers(module)
        yield from self._check_mutable_defaults(module)
        if module.in_package("simulation"):
            yield from self._check_determinism(module)

    # -- FRQ-H401 ----------------------------------------------------------

    def _check_handlers(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in module.index.nodes(ast.ExceptHandler):
            if node.type is None:
                yield self.diagnostic(
                    module,
                    node,
                    "FRQ-H401",
                    "bare except: catches KeyboardInterrupt and SystemExit "
                    "too — name the exception types",
                )
                continue
            handler_type = (
                node.type.id if isinstance(node.type, ast.Name) else None
            )
            body_is_swallow = all(
                isinstance(stmt, ast.Pass)
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                )
                for stmt in node.body
            )
            if handler_type in ("Exception", "BaseException") and body_is_swallow:
                yield self.diagnostic(
                    module,
                    node,
                    "FRQ-H401",
                    f"except {handler_type}: pass silently swallows every "
                    f"failure — handle, log, or re-raise",
                )

    # -- FRQ-H402 ----------------------------------------------------------

    def _check_mutable_defaults(
        self, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        for node in module.index.functions():
            defaults = list(node.args.defaults) + [
                default
                for default in node.args.kw_defaults
                if default is not None
            ]
            for default in defaults:
                is_mutable = isinstance(default, _MUTABLE_LITERALS) or (
                    isinstance(default, ast.Call)
                    and call_name(default) in _MUTABLE_FACTORIES
                )
                if is_mutable:
                    yield self.diagnostic(
                        module,
                        default,
                        "FRQ-H402",
                        f"mutable default in {node.name}() is shared across "
                        f"calls — default to None and construct inside",
                    )

    # -- FRQ-H403 ----------------------------------------------------------

    def _check_determinism(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in module.index.nodes(ast.Call):
            name = call_name(node)
            if name in _WALLCLOCK_CALLS:
                yield self.diagnostic(
                    module,
                    node,
                    "FRQ-H403",
                    f"{name}() makes the simulation non-replayable — take "
                    f"timestamps from the workload clock or a parameter",
                )
            elif name in _GLOBAL_RANDOM_CALLS:
                yield self.diagnostic(
                    module,
                    node,
                    "FRQ-H403",
                    f"{name}() uses the global unseeded RNG — draw from a "
                    f"seeded random.Random instance",
                )
            elif name in ("random.Random", "Random") and not (
                node.args or node.keywords
            ):
                yield self.diagnostic(
                    module,
                    node,
                    "FRQ-H403",
                    "random.Random() without a seed is nondeterministic — "
                    "pass an explicit seed",
                )
