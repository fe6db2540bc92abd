"""The per-module node index answers exactly what ``ast.walk`` would."""

import ast
from pathlib import Path

import pytest

from repro.devtools.lint import discover_files, load_module
from repro.devtools.registry import ModuleInfo

from tests.devtools.conftest import parse_module

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Every node-type query a checker or the call graph makes of the index.
QUERIES = [
    (ast.Call,),
    (ast.Attribute,),
    (ast.Assign,),
    (ast.Expr,),
    (ast.ClassDef,),
    (ast.Compare,),
    (ast.ExceptHandler,),
    (ast.Try,),
    (ast.FunctionDef, ast.AsyncFunctionDef),
    (ast.For, ast.While),
    (ast.Attribute, ast.Call),
    (ast.Call, ast.Attribute),
    (ast.Assign, ast.Call),
    (ast.Assign, ast.AugAssign),
    (ast.Assign, ast.AugAssign, ast.AnnAssign),
    (ast.Assign, ast.AugAssign, ast.Call),
    (ast.Call, ast.Assign, ast.AnnAssign),
    (ast.Import, ast.ImportFrom),
    # Abstract bases match every concrete subclass, as isinstance does.
    (ast.stmt,),
    (ast.AST,),
]


def _of(nodes, types):
    return [node for node in nodes if isinstance(node, types)]


def _assert_matches_walk(module: ModuleInfo) -> None:
    index = module.index
    walked = list(ast.walk(module.tree))
    for types in QUERIES:
        assert list(index.nodes(*types)) == _of(walked, types), (
            module.display_path,
            types,
        )
    # Scoped queries equal a walk of the definition's own subtree.
    for definition in _of(
        walked, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        subtree = list(ast.walk(definition))
        for types in [(ast.AST,), (ast.Call,), (ast.Assign, ast.AugAssign)]:
            assert list(index.nodes(*types, within=definition)) == _of(
                subtree, types
            ), (module.display_path, definition.name, types)
        assert list(index.functions(within=definition)) == _of(
            subtree, (ast.FunctionDef, ast.AsyncFunctionDef)
        )


@pytest.mark.parametrize(
    "path",
    discover_files([REPO_ROOT / "src"]),
    ids=lambda path: path.relative_to(REPO_ROOT / "src").as_posix(),
)
def test_index_matches_ast_walk_on_every_src_module(path):
    module = load_module(path, REPO_ROOT)
    assert isinstance(module, ModuleInfo)
    _assert_matches_walk(module)


def test_index_of_an_inline_fixture_derives_from_its_tree():
    module = parse_module(
        """
        import threading

        @decorate(helper())
        def outer(items=make()):
            def inner():
                return [call() for call in items]
            return inner

        class Node:
            lock = threading.Lock()

            async def run(self):
                async with self.lock:
                    await self.step(lambda: tick())
        """,
        "src/repro/core/node.py",
    )
    _assert_matches_walk(module)
    assert module.index.dotted_name == "repro.core.node"
    outer = module.index.functions()[0]
    # A definition encloses its own decorators and defaults.
    calls = {ast.unparse(call) for call in module.index.nodes(
        ast.Call, within=outer
    )}
    assert {"decorate(helper())", "helper()", "make()", "call()"} == calls


def test_scoped_query_rejects_a_node_that_is_not_a_definition():
    module = parse_module("for x in y:\n    f(x)\n", "src/repro/core/a.py")
    loop = module.tree.body[0]
    with pytest.raises(ValueError):
        module.index.nodes(ast.Call, within=loop)


def test_queries_are_memoised():
    module = parse_module("f()\ng()\n", "scripts/tool.py")
    assert module.index.nodes(ast.Call) is module.index.nodes(ast.Call)
    assert module.index.dotted_name is None
