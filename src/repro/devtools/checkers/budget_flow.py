"""Privacy budget-flow checkers (FRQ-P31x) — whole-program.

FRESQUE's budget discipline (paper Section 8) routes every publication
through :meth:`PublicationAccountant.grant`: the accountant is the only
place ε leaves the ledgered budget, and the ε a noise plan consumes must
be the ε some grant released.  The per-module FRQ-P30x rules catch
*literal* epsilons; these rules track ε **provenance** through the call
graph with the dataflow engine:

* ``FRQ-P311`` — a ``draw_noise_plan(...)`` call whose ``epsilon``
  argument is provably not derived from an accountant grant (not
  ``grant.epsilon``, not a ``PublicationGrant`` parameter, on any
  analysed path).  When the epsilon is an open parameter of the calling
  function, the check walks up the call graph to every resolved caller
  and reports the call site that supplies the ungranted value; a
  function with no in-project callers is a public API boundary and
  stays silent (the caller outside the repo owns the obligation).
* ``FRQ-P312`` — a ``.grant()`` call whose result is discarded: the
  ledger records the publication as spent, but the released ε can never
  reach a noise plan, silently burning budget.

Literal epsilon arguments are skipped here — ``FRQ-P302``/``FRQ-P303``
own hard-coded budgets, and one defect should fire exactly once.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.devtools.astutil import call_name, keyword_arg
from repro.devtools.callgraph import CallGraph, FunctionInfo, Project
from repro.devtools.dataflow import (
    EMPTY,
    TaintEngine,
    TaintSpec,
    Val,
    deep_labels,
    field_of,
)
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import ProjectChecker, register

#: Receivers that look like the accountant (for the discarded-grant rule).
_ACCOUNTANT_RE = re.compile(r"(accountant|budget)", re.IGNORECASE)

#: How far up the call graph an open epsilon parameter is chased.
_MAX_CALLER_DEPTH = 8

GRANT_SPEC = TaintSpec(
    label="grant",
    source_calls=frozenset({".grant"}),
    source_param_annotations=frozenset({"PublicationGrant"}),
)


def _is_draw_call(call: ast.Call) -> bool:
    name = call_name(call)
    return name is not None and name.rsplit(".", 1)[-1] == "draw_noise_plan"


def _epsilon_argument(call: ast.Call) -> ast.expr | None:
    """The ``epsilon`` argument of a ``draw_noise_plan`` call."""
    keyword = keyword_arg(call, "epsilon")
    if keyword is not None:
        return keyword
    if len(call.args) > 1:
        return call.args[1]
    return None


def _is_numeric_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float)
    )


def _param_roots(val: Val) -> set[int]:
    """Parameter indices mentioned anywhere in ``val``'s labels."""
    roots: set[int] = set()
    for label in deep_labels(val):
        root = label.partition(".")[0]
        if root.startswith("p"):
            try:
                roots.add(int(root[1:]))
            except ValueError:
                continue
    return roots


@register
class BudgetFlowChecker(ProjectChecker):
    """Every drawn noise plan must spend accountant-granted ε."""

    name = "budget-flow"
    codes = {
        "FRQ-P311": (
            "noise plan drawn with an epsilon not derived from an "
            "accountant grant"
        ),
        "FRQ-P312": (
            "accountant grant discarded — budget is spent but its epsilon "
            "never reaches a noise plan"
        ),
    }

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        graph = project.call_graph
        engine = TaintEngine(project, graph, GRANT_SPEC)
        engine.run()
        for info in project.functions.values():
            if info.module.in_package("privacy"):
                continue
            yield from self._check_draws(project, graph, engine, info)
            yield from self._check_discards(info)

    # -- FRQ-P311 ----------------------------------------------------------

    def _check_draws(
        self,
        project: Project,
        graph: CallGraph,
        engine: TaintEngine,
        info: FunctionInfo,
    ) -> Iterator[Diagnostic]:
        if info.module.is_module("index/perturb.py"):
            return  # the sanctioned drawing layer itself
        result = engine.result_for(info)
        if result is None:
            return
        for node in info.module.index.nodes(ast.Call, within=info.node):
            if not _is_draw_call(node):
                continue
            epsilon = _epsilon_argument(node)
            if epsilon is None or _is_numeric_literal(epsilon):
                continue  # missing arg / FRQ-P30x literal territory
            evaluation = result.call_evals.get(id(node))
            if evaluation is None:
                continue
            keyword = keyword_arg(node, "epsilon")
            val = evaluation.argument(1, "epsilon" if keyword else None)
            yield from self._judge_epsilon(
                graph, engine, info, node, val, trace=(), depth=0,
                visited=set(),
            )

    def _judge_epsilon(
        self,
        graph: CallGraph,
        engine: TaintEngine,
        info: FunctionInfo,
        node: ast.Call,
        val: Val,
        trace: tuple[str, ...],
        depth: int,
        visited: set,
    ) -> Iterator[Diagnostic]:
        """Decide one epsilon value; recurse to callers for open params."""
        labels = deep_labels(val)
        if "T" in labels:
            return  # grant-derived on at least one analysed path
        roots = _param_roots(val)
        if not roots:
            yield self._draw_diagnostic(info, node, trace)
            return
        if depth >= _MAX_CALLER_DEPTH:
            return  # give up silently: under-approximate, never guess
        sites = graph.call_sites_of(info.qualname)
        if not sites:
            return  # public API boundary: the external caller's obligation
        for index in sorted(roots):
            param = info.params[index] if index < len(info.params) else None
            key = (info.qualname, index)
            if key in visited:
                continue
            visited.add(key)
            for site in sites:
                caller_result = engine.result_for(site.caller)
                if caller_result is None:
                    continue
                evaluation = caller_result.call_evals.get(id(site.call))
                if evaluation is None:
                    continue
                keyword = param.arg if param is not None else None
                positional = index < len(site.call.args)
                by_keyword = keyword is not None and any(
                    kw.arg == keyword for kw in site.call.keywords
                )
                if not positional and not by_keyword:
                    # The caller leaves the parameter at its default (e.g.
                    # injects a pre-drawn plan instead): the guarded branch
                    # that would draw is not taken from this site.
                    continue
                arg_val = evaluation.argument(
                    index, keyword if by_keyword and not positional else None
                )
                hop = f"{info.name}()"
                yield from self._judge_epsilon(
                    graph,
                    engine,
                    site.caller,
                    site.call,
                    arg_val,
                    trace=(hop,) + trace,
                    depth=depth + 1,
                    visited=visited,
                )

    def _draw_diagnostic(
        self, info: FunctionInfo, node: ast.Call, trace: tuple[str, ...]
    ) -> Diagnostic:
        via = f" (feeding {' -> '.join(trace)})" if trace else ""
        return self.diagnostic(
            info.module,
            node,
            "FRQ-P311",
            f"epsilon fed to draw_noise_plan{via} is not derived from a "
            f"PublicationAccountant grant on any analysed path — route the "
            f"budget through accountant.grant() so the ledger matches what "
            f"the index actually spends",
        )

    # -- FRQ-P312 ----------------------------------------------------------

    def _check_discards(self, info: FunctionInfo) -> Iterator[Diagnostic]:
        for stmt in info.module.index.nodes(ast.Expr, within=info.node):
            call = stmt.value
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if not (isinstance(func, ast.Attribute) and func.attr == "grant"):
                continue
            receiver = call_name(call)
            if receiver is None:
                continue
            base = receiver.rsplit(".", 2)[-2] if "." in receiver else receiver
            if not _ACCOUNTANT_RE.search(base):
                continue
            yield self.diagnostic(
                info.module,
                call,
                "FRQ-P312",
                "the PublicationGrant returned by grant() is discarded — "
                "the ledger burns one publication share of epsilon that no "
                "noise plan can ever spend",
            )
