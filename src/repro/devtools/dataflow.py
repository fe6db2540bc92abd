"""Forward taint/dataflow engine over the project call graph.

The engine answers one question per :class:`TaintSpec`: can a value
produced by a *source* reach a *sink* without passing through a
*sanitizer* — following assignments, attribute access, container
literals, calls and returns, across function boundaries?

Values
------
A taint value (:class:`Val`) is a set of labels plus optional per-field
taint.  Labels are either ``"T"`` (derived from a source) or parameter
placeholders ``"p0"`` / ``"p0.attr"`` (derived from the enclosing
function's 0th parameter, or from its ``attr`` field).  Field taint is
what keeps the analysis precise on the repo's message dataclasses: a
``Pair(leaf_offset=clean, encrypted=clean, dummy=tainted)`` constructor
produces a *struct* whose ``encrypted`` field stays clean, so shipping
``pair.encrypted`` to the cloud does not fire while shipping
``pair.dummy`` would.

Summaries
---------
Each function gets a :class:`Summary`: the taint of its return value
(expressed over ``T``/param labels, structure preserved one level) and
the sinks its parameters reach internally.  Summaries are computed in
callee-first (Tarjan SCC) order and iterated to a fixed point, so taint
crosses any number of call boundaries; recursion converges because the
label alphabet is finite and field depth is capped.

Soundness limits (documented in docs/STATIC_ANALYSIS.md)
--------------------------------------------------------
The engine under-approximates: taint dies at queue/channel hops, at
``self.X`` attributes assigned in one method and read in another, inside
lambda/nested-function bodies, and at calls it cannot resolve.  It never
guesses a flow it cannot see, which keeps false positives near zero at
the cost of documented false negatives.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.devtools.astutil import (
    annotation_names,
    assigned_names,
    dotted_name,
)
from repro.devtools.callgraph import (
    CallGraph,
    ClassInfo,
    FunctionInfo,
    Project,
)
from repro.devtools.registry import ModuleInfo

#: Builtin calls through which taint flows from arguments to result.
_PROPAGATING_BUILTINS = frozenset(
    {
        "tuple", "list", "set", "frozenset", "dict", "bytes", "bytearray",
        "str", "repr", "sorted", "reversed", "zip", "enumerate", "min",
        "max", "next", "iter", "sum", "abs", "round", "format", "vars",
    }
)

#: Maximum struct nesting tracked before flattening to plain labels.
_MAX_FIELD_DEPTH = 3

#: Maximum ``p0.a`` label depth (segments after the parameter root).
_MAX_LABEL_FIELDS = 1


class Val:
    """One taint value: labels plus optional per-field structure."""

    __slots__ = ("labels", "fields")

    def __init__(
        self,
        labels: frozenset[str] = frozenset(),
        fields: Mapping[str, "Val"] | None = None,
    ):
        self.labels = labels
        self.fields: dict[str, Val] = dict(fields) if fields else {}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Val)
            and self.labels == other.labels
            and self.fields == other.fields
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.labels, tuple(sorted(self.fields))))

    def __repr__(self) -> str:
        parts = sorted(self.labels)
        if self.fields:
            parts.append(
                "{" + ", ".join(
                    f"{k}: {v!r}" for k, v in sorted(self.fields.items())
                ) + "}"
            )
        return f"Val({', '.join(parts)})"

    @property
    def is_empty(self) -> bool:
        return not self.labels and not self.fields


EMPTY = Val()


def deep_labels(val: Val) -> frozenset[str]:
    """Every label in ``val`` and its nested fields."""
    labels = val.labels
    for sub in val.fields.values():
        labels = labels | deep_labels(sub)
    return labels


def union(*vals: Val) -> Val:
    """Field-wise union of taint values."""
    vals = tuple(v for v in vals if v is not None and not v.is_empty)
    if not vals:
        return EMPTY
    if len(vals) == 1:
        return vals[0]
    labels: frozenset[str] = frozenset()
    fields: dict[str, Val] = {}
    for val in vals:
        labels |= val.labels
        for name, sub in val.fields.items():
            fields[name] = union(fields[name], sub) if name in fields else sub
    return Val(labels, fields)


def flatten(val: Val) -> Val:
    """Collapse structure into plain labels."""
    if not val.fields:
        return val
    return Val(deep_labels(val))


def _clamp_depth(val: Val, depth: int = 0) -> Val:
    if not val.fields:
        return val
    if depth >= _MAX_FIELD_DEPTH:
        return flatten(val)
    return Val(
        val.labels,
        {k: _clamp_depth(v, depth + 1) for k, v in val.fields.items()},
    )


def _derive_label(label: str, attr: str) -> str:
    """Label for ``<value with label>.attr``."""
    if label == "T":
        return "T"
    root, *rest = label.split(".")
    if len(rest) >= _MAX_LABEL_FIELDS:
        return label  # depth cap: stay conservative at the param root
    return f"{label}.{attr}"


def field_of(val: Val, attr: str) -> Val:
    """Taint of ``value.attr``."""
    if attr in val.fields:
        return val.fields[attr]
    if not val.labels:
        return EMPTY
    return Val(frozenset(_derive_label(label, attr) for label in val.labels))


def with_field(val: Val, attr: str, sub: Val) -> Val:
    fields = dict(val.fields)
    fields[attr] = sub
    return _clamp_depth(Val(val.labels, fields))


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SinkSpec:
    """One family of sink calls.

    ``methods`` match attribute calls whose receiver's final name
    matches ``receiver_re`` (``None`` accepts any receiver); ``names``
    match bare-name calls.
    """

    description: str
    methods: frozenset[str] = frozenset()
    receiver_re: re.Pattern | None = None
    names: frozenset[str] = frozenset()

    def matches(self, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr not in self.methods:
                return False
            if self.receiver_re is None:
                return True
            receiver = dotted_name(func.value)
            if receiver is None:
                return False
            return bool(self.receiver_re.search(receiver.rsplit(".", 1)[-1]))
        if isinstance(func, ast.Name):
            return func.id in self.names
        return False


@dataclass(frozen=True)
class TaintSpec:
    """Sources, sinks and sanitizers of one dataflow property."""

    label: str
    #: Call matchers whose *result* is tainted: ``"parse_raw_line"``
    #: (bare/dotted-tail name) or ``".decrypt"`` (any-receiver method).
    source_calls: frozenset[str] = frozenset()
    #: Parameter annotations that taint the parameter at entry.
    source_param_annotations: frozenset[str] = frozenset()
    #: Attribute names whose *read* is a source on any base.
    source_attrs: frozenset[str] = frozenset()
    sinks: tuple[SinkSpec, ...] = ()
    #: Callee-name prefixes whose result is clean (declassifiers).
    sanitizers: tuple[str, ...] = ()

    def is_source_call(self, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute):
            return f".{func.attr}" in self.source_calls
        name = dotted_name(func)
        if name is None:
            return False
        return name.rsplit(".", 1)[-1] in self.source_calls

    def is_sanitizer(self, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute):
            tail = func.attr
        else:
            name = dotted_name(func)
            if name is None:
                return False
            tail = name.rsplit(".", 1)[-1]
        # ``_encrypt`` helpers are sanitizers too: match past the
        # private-name underscore prefix.
        tail = tail.lstrip("_")
        return any(tail.startswith(prefix) for prefix in self.sanitizers)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SinkHit:
    """A taint label reaching one sink call."""

    label: str
    module: ModuleInfo
    node: ast.AST
    sink: str
    #: Human-readable hops the taint crossed (innermost last).
    trace: tuple[str, ...] = ()

    def key(self):
        return (
            self.label,
            self.module.display_path,
            getattr(self.node, "lineno", 0),
            getattr(self.node, "col_offset", 0),
            self.sink,
            self.trace,
        )


@dataclass
class Summary:
    """Interprocedural behaviour of one function."""

    returns: Val = field(default_factory=lambda: EMPTY)
    #: Sinks reached by parameter labels inside this function.
    param_hits: tuple[SinkHit, ...] = ()

    def signature(self):
        return (repr(self.returns), frozenset(h.key() for h in self.param_hits))


@dataclass
class CallEval:
    """Evaluated argument taint of one call site."""

    args: list[Val]
    keywords: dict[str, Val]

    def argument(self, position: int, keyword: str | None) -> Val:
        if keyword is not None:
            return self.keywords.get(keyword, EMPTY)
        if 0 <= position < len(self.args):
            return self.args[position]
        return EMPTY


@dataclass
class FunctionResult:
    summary: Summary
    #: Fully-resolved hits (source taint reached a sink) found here.
    hits: list[SinkHit]
    #: id(ast.Call) → evaluated argument taint, for checker queries.
    call_evals: dict[int, CallEval]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class TaintEngine:
    """Runs one :class:`TaintSpec` over a whole :class:`Project`."""

    def __init__(
        self,
        project: Project,
        graph: CallGraph,
        spec: TaintSpec,
        max_rounds: int = 4,
    ):
        self.project = project
        self.graph = graph
        self.spec = spec
        self.max_rounds = max_rounds
        self.summaries: dict[str, Summary] = {}
        self.results: dict[str, FunctionResult] = {}

    def run(self) -> None:
        order = self.graph.callee_first_order()
        # A function's analysis reads nothing but its callees' summaries,
        # so it is redone only when one of them changed since its last
        # run; ``stamp`` counts summary changes.
        stamp = 0
        changed_at: dict[str, int] = {}
        seen_at: dict[str, int] = {}
        for _ in range(self.max_rounds):
            changed = False
            for info in order:
                name = info.qualname
                if name in seen_at and all(
                    changed_at.get(site.callee.qualname, 0) <= seen_at[name]
                    for site in self.graph.callees[name]
                ):
                    continue
                seen_at[name] = stamp
                result = _FunctionAnalysis(self, info).run()
                previous = self.summaries.get(name)
                if (
                    previous is None
                    or previous.signature() != result.summary.signature()
                ):
                    changed = True
                    stamp += 1
                    changed_at[name] = stamp
                self.summaries[name] = result.summary
                self.results[name] = result
            if not changed:
                break

    @property
    def hits(self) -> list[SinkHit]:
        """Every resolved source-to-sink flow, deduplicated."""
        seen: dict[tuple, SinkHit] = {}
        for result in self.results.values():
            for hit in result.hits:
                seen.setdefault(hit.key(), hit)
        return sorted(
            seen.values(),
            key=lambda h: (
                h.module.display_path,
                getattr(h.node, "lineno", 0),
                getattr(h.node, "col_offset", 0),
            ),
        )

    def result_for(self, info: FunctionInfo) -> FunctionResult | None:
        return self.results.get(info.qualname)


class _FunctionAnalysis:
    """One intraprocedural pass over one function."""

    def __init__(self, engine: TaintEngine, info: FunctionInfo):
        self.engine = engine
        self.spec = engine.spec
        self.info = info
        self.env: dict[str, Val] = {}
        self.returns: Val = EMPTY
        self.param_hits: dict[tuple, SinkHit] = {}
        self.hits: dict[tuple, SinkHit] = {}
        self.call_evals: dict[int, CallEval] = {}

    def run(self) -> FunctionResult:
        spec = self.spec
        for index, param in enumerate(self.info.params):
            labels = {f"p{index}"}
            if annotation_names(param.annotation) & spec.source_param_annotations:
                labels.add("T")
            self.env[param.arg] = Val(frozenset(labels))
        self.env.setdefault("self", EMPTY)
        self.exec_block(self.info.node.body)
        return FunctionResult(
            summary=Summary(
                returns=_clamp_depth(self.returns),
                param_hits=tuple(self.param_hits.values()),
            ),
            hits=list(self.hits.values()),
            call_evals=self.call_evals,
        )

    # -- statements --------------------------------------------------------

    def exec_block(self, stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def _merge_branches(self, *branch_envs: dict[str, Val]) -> None:
        merged: dict[str, Val] = {}
        for env in branch_envs:
            for name, val in env.items():
                merged[name] = (
                    union(merged[name], val) if name in merged else val
                )
        self.env = merged

    def _exec_on_copy(self, stmts: Iterable[ast.stmt]) -> dict[str, Val]:
        saved = self.env
        self.env = dict(saved)
        self.exec_block(stmts)
        result = self.env
        self.env = saved
        return result

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            for target in stmt.targets:
                self.bind(target, value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            value = union(self.eval(stmt.value), self.load(stmt.target))
            self.bind(stmt.target, value)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns = union(self.returns, self.eval(stmt.value))
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            body = self._exec_on_copy(stmt.body)
            orelse = self._exec_on_copy(stmt.orelse)
            self._merge_branches(body, orelse)
        elif isinstance(stmt, (ast.While,)):
            self.eval(stmt.test)
            first = self._exec_on_copy(stmt.body)
            self._merge_branches(self.env, first)
            second = self._exec_on_copy(stmt.body)
            self._merge_branches(self.env, second)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iterable = self.eval(stmt.iter)
            self.bind(stmt.target, iterable)
            first = self._exec_on_copy(stmt.body)
            self._merge_branches(self.env, first)
            second = self._exec_on_copy(stmt.body)
            self._merge_branches(self.env, second)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                context = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, context)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)
        ):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                if handler.name is not None:
                    self.env[handler.name] = EMPTY
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Match):
            self.eval(stmt.subject)
            branches = [self._exec_on_copy(case.body) for case in stmt.cases]
            if branches:
                self._merge_branches(self.env, *branches)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test)
            if stmt.msg is not None:
                self.eval(stmt.msg)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        # Nested def/class bodies run later, in another frame: skip.
        # (Import/Pass/Break/Continue/Global/Nonlocal carry no data flow.)

    def bind(self, target: ast.expr, value: Val) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, ast.Starred):
            self.bind(target.value, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for index, element in enumerate(target.elts):
                self.bind(element, field_of(value, str(index)))
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name):
                current = self.env.get(base.id, EMPTY)
                self.env[base.id] = with_field(current, target.attr, value)
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name):
                current = self.env.get(base.id, EMPTY)
                self.env[base.id] = union(current, Val(deep_labels(value)))

    def load(self, target: ast.expr) -> Val:
        """Current taint of an assignment target (for ``+=``)."""
        if isinstance(target, ast.Name):
            return self.env.get(target.id, EMPTY)
        if isinstance(target, ast.Attribute):
            return field_of(self.eval(target.value), target.attr)
        if isinstance(target, ast.Subscript):
            return self.eval(target)
        return EMPTY

    # -- expressions -------------------------------------------------------

    def eval(self, node: ast.expr | None) -> Val:
        if node is None:
            return EMPTY
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        # Fallback: evaluate children (sink detection) and stay clean.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
        return EMPTY

    def _eval_Name(self, node: ast.Name) -> Val:
        return self.env.get(node.id, EMPTY)

    def _eval_Constant(self, node: ast.Constant) -> Val:
        return EMPTY

    def _eval_Attribute(self, node: ast.Attribute) -> Val:
        base = self.eval(node.value)
        value = field_of(base, node.attr)
        if node.attr in self.spec.source_attrs:
            value = union(value, Val(frozenset({"T"})))
        return value

    def _eval_BinOp(self, node: ast.BinOp) -> Val:
        return Val(
            deep_labels(self.eval(node.left))
            | deep_labels(self.eval(node.right))
        )

    def _eval_BoolOp(self, node: ast.BoolOp) -> Val:
        return union(*(self.eval(value) for value in node.values))

    def _eval_UnaryOp(self, node: ast.UnaryOp) -> Val:
        return self.eval(node.operand)

    def _eval_Compare(self, node: ast.Compare) -> Val:
        self.eval(node.left)
        for comparator in node.comparators:
            self.eval(comparator)
        return EMPTY

    def _eval_Subscript(self, node: ast.Subscript) -> Val:
        base = self.eval(node.value)
        index = node.slice
        self.eval(index)
        if isinstance(index, ast.Constant) and isinstance(
            index.value, (int, str)
        ):
            return field_of(base, str(index.value))
        return Val(deep_labels(base))

    def _eval_Tuple(self, node: ast.Tuple) -> Val:
        fields = {
            str(i): self.eval(element) for i, element in enumerate(node.elts)
        }
        return _clamp_depth(Val(frozenset(), fields))

    def _eval_List(self, node: ast.List) -> Val:
        return union(*(self.eval(element) for element in node.elts))

    _eval_Set = _eval_List

    def _eval_Dict(self, node: ast.Dict) -> Val:
        labels: frozenset[str] = frozenset()
        for key in node.keys:
            if key is not None:
                labels |= deep_labels(self.eval(key))
        for value in node.values:
            labels |= deep_labels(self.eval(value))
        return Val(labels)

    def _eval_JoinedStr(self, node: ast.JoinedStr) -> Val:
        labels: frozenset[str] = frozenset()
        for value in node.values:
            labels |= deep_labels(self.eval(value))
        return Val(labels)

    def _eval_FormattedValue(self, node: ast.FormattedValue) -> Val:
        return self.eval(node.value)

    def _eval_IfExp(self, node: ast.IfExp) -> Val:
        self.eval(node.test)
        return union(self.eval(node.body), self.eval(node.orelse))

    def _eval_Starred(self, node: ast.Starred) -> Val:
        return self.eval(node.value)

    def _eval_Await(self, node: ast.Await) -> Val:
        return self.eval(node.value)

    def _eval_Yield(self, node: ast.Yield) -> Val:
        if node.value is not None:
            value = self.eval(node.value)
            self.returns = union(self.returns, value)
        return EMPTY

    def _eval_YieldFrom(self, node: ast.YieldFrom) -> Val:
        value = self.eval(node.value)
        self.returns = union(self.returns, value)
        return EMPTY

    def _eval_NamedExpr(self, node: ast.NamedExpr) -> Val:
        value = self.eval(node.value)
        self.bind(node.target, value)
        return value

    def _eval_Lambda(self, node: ast.Lambda) -> Val:
        # The body runs in another frame, later; analysing it here would
        # mix frames.  Documented false-negative.
        return EMPTY

    def _eval_comprehension(self, node) -> Val:
        saved = self.env
        self.env = dict(saved)
        try:
            for generator in node.generators:
                iterable = self.eval(generator.iter)
                self.bind(generator.target, iterable)
                for condition in generator.ifs:
                    self.eval(condition)
            if isinstance(node, ast.DictComp):
                return Val(
                    deep_labels(self.eval(node.key))
                    | deep_labels(self.eval(node.value))
                )
            return union(self.eval(node.elt))
        finally:
            self.env = saved

    _eval_ListComp = _eval_comprehension
    _eval_SetComp = _eval_comprehension
    _eval_GeneratorExp = _eval_comprehension
    _eval_DictComp = _eval_comprehension

    # -- calls -------------------------------------------------------------

    def _eval_Call(self, node: ast.Call) -> Val:
        spec = self.spec
        arg_vals = [self.eval(arg) for arg in node.args]
        kw_vals = {
            kw.arg: self.eval(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        for kw in node.keywords:
            if kw.arg is None:  # **kwargs splat
                self.eval(kw.value)
        self.call_evals[id(node)] = CallEval(args=arg_vals, keywords=kw_vals)

        receiver_val = EMPTY
        if isinstance(node.func, ast.Attribute):
            receiver_val = self.eval(node.func.value)
        elif not isinstance(node.func, ast.Name):
            self.eval(node.func)  # computed callee, e.g. factories[k](...)

        # 1. Sinks fire on tainted arguments regardless of resolution.
        self._check_sinks(node, arg_vals, kw_vals)

        # 2. Sanitizers produce clean results.
        if spec.is_sanitizer(node):
            return EMPTY

        # 3. Resolved project callees: apply their summaries.
        targets = self.engine.graph.targets(node)
        result = EMPTY
        resolved = False
        for target in targets:
            if isinstance(target, ClassInfo):
                resolved = True
                result = union(
                    result,
                    self._construct(target, node, arg_vals, kw_vals),
                )
            elif isinstance(target, FunctionInfo):
                resolved = True
                result = union(
                    result,
                    self._apply_summary(target, node, arg_vals, kw_vals),
                )

        # 4. Sources taint the result.
        if spec.is_source_call(node):
            result = union(result, Val(frozenset({"T"})))
            resolved = True

        if resolved:
            return result

        # 5. Unresolved calls: propagate conservatively through builtins
        #    and through methods of tainted receivers; otherwise clean.
        if isinstance(node.func, ast.Name):
            if node.func.id in _PROPAGATING_BUILTINS:
                return union(
                    Val(
                        frozenset().union(
                            *(deep_labels(v) for v in arg_vals),
                            *(deep_labels(v) for v in kw_vals.values()),
                        )
                    )
                )
            return EMPTY
        if isinstance(node.func, ast.Attribute):
            labels = deep_labels(receiver_val)
            for val in arg_vals:
                labels |= deep_labels(val)
            for val in kw_vals.values():
                labels |= deep_labels(val)
            return Val(labels)
        return EMPTY

    def _construct(
        self,
        cls: ClassInfo,
        node: ast.Call,
        arg_vals: list[Val],
        kw_vals: dict[str, Val],
    ) -> Val:
        """A project-class constructor captures its arguments as fields."""
        names = cls.constructor_fields()
        fields: dict[str, Val] = {}
        for index, val in enumerate(arg_vals):
            if val.is_empty:
                continue
            name = names[index] if index < len(names) else f"arg{index}"
            fields[name] = union(fields.get(name), val)
        for name, val in kw_vals.items():
            if not val.is_empty:
                fields[name] = union(fields.get(name), val)
        init = cls.init
        if init is not None:
            # An explicit __init__ may also sink its arguments.
            self._apply_summary(init, node, arg_vals, kw_vals)
        if not fields:
            return EMPTY
        return _clamp_depth(Val(frozenset(), fields))

    def _apply_summary(
        self,
        callee: FunctionInfo,
        node: ast.Call,
        arg_vals: list[Val],
        kw_vals: dict[str, Val],
    ) -> Val:
        summary = self.engine.summaries.get(callee.qualname)
        if summary is None:
            return EMPTY
        params = callee.params
        by_index: dict[int, Val] = {}
        for position, val in enumerate(arg_vals):
            by_index[position] = val
        for name, val in kw_vals.items():
            index = callee.param_index(name)
            if index is not None:
                by_index[index] = union(by_index.get(index), val)

        def resolve_label(label: str) -> frozenset[str]:
            if label == "T":
                return frozenset({"T"})
            root, _, attr = label.partition(".")
            try:
                index = int(root[1:])
            except ValueError:
                return frozenset()
            arg = by_index.get(index, EMPTY)
            if attr:
                arg = field_of(arg, attr)
            return deep_labels(arg)

        # Parameter taint reaching sinks inside the callee.
        for hit in summary.param_hits:
            labels = resolve_label(hit.label)
            trace = (f"{callee.name}()",) + hit.trace
            for label in labels:
                self._record_hit(
                    SinkHit(
                        label=label,
                        module=self.info.module,
                        node=node,
                        sink=hit.sink,
                        trace=trace,
                    )
                )

        def substitute(val: Val) -> Val:
            labels: frozenset[str] = frozenset()
            for label in val.labels:
                labels |= resolve_label(label)
            return Val(
                labels,
                {name: substitute(sub) for name, sub in val.fields.items()},
            )

        result = substitute(summary.returns)
        return _clamp_depth(Val(result.labels, result.fields))

    def _check_sinks(
        self,
        node: ast.Call,
        arg_vals: list[Val],
        kw_vals: dict[str, Val],
    ) -> None:
        for sink in self.spec.sinks:
            if not sink.matches(node):
                continue
            tainted: frozenset[str] = frozenset()
            for val in arg_vals:
                tainted |= deep_labels(val)
            for val in kw_vals.values():
                tainted |= deep_labels(val)
            for label in tainted:
                self._record_hit(
                    SinkHit(
                        label=label,
                        module=self.info.module,
                        node=node,
                        sink=sink.description,
                        trace=(),
                    )
                )

    def _record_hit(self, hit: SinkHit) -> None:
        if hit.label == "T":
            self.hits[hit.key()] = hit
        elif hit.label.startswith("p"):
            self.param_hits[hit.key()] = hit
