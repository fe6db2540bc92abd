"""Symbol table and call graph construction."""

from collections import Counter

from repro.devtools import callgraph
from repro.devtools.callgraph import (
    CallGraph,
    ClassInfo,
    FunctionInfo,
    build_project,
    module_dotted_name,
)

from tests.devtools.conftest import codes_of, lint_files, parse_module


def project_of(files: dict[str, str]):
    return build_project(
        [parse_module(source, path) for path, source in files.items()]
    )


def test_module_dotted_name():
    assert (
        module_dotted_name("src/repro/records/serialize.py")
        == "repro.records.serialize"
    )
    assert module_dotted_name("src/repro/privacy/__init__.py") == "repro.privacy"
    assert module_dotted_name("scripts/tool.py") is None


def test_collects_functions_methods_and_classes():
    project = project_of(
        {
            "src/repro/core/a.py": """
            def helper():
                pass

            class Widget:
                def __init__(self, size):
                    self.size = size

                def resize(self, size):
                    pass
            """
        }
    )
    assert "src/repro/core/a.py::helper" in project.functions
    assert "src/repro/core/a.py::Widget.resize" in project.functions
    widget = project.class_named("Widget")
    assert isinstance(widget, ClassInfo)
    assert widget.constructor_fields() == ("size",)


def test_method_params_strip_self_but_not_static():
    project = project_of(
        {
            "src/repro/core/a.py": """
            class Widget:
                def resize(self, size):
                    pass

                @staticmethod
                def area(width, height):
                    pass
            """
        }
    )
    resize = project.functions["src/repro/core/a.py::Widget.resize"]
    area = project.functions["src/repro/core/a.py::Widget.area"]
    assert [p.arg for p in resize.params] == ["size"]
    assert [p.arg for p in area.params] == ["width", "height"]
    assert resize.param_index("size") == 0


def test_resolves_cross_module_imports_and_reexports():
    project = project_of(
        {
            "src/repro/records/parse.py": """
            def parse_raw_line(line):
                pass
            """,
            "src/repro/records/__init__.py": """
            from repro.records.parse import parse_raw_line
            """,
            "src/repro/core/user.py": """
            from repro.records import parse_raw_line

            def ingest(line):
                parse_raw_line(line)
            """,
        }
    )
    graph = CallGraph(project)
    sites = graph.callees["src/repro/core/user.py::ingest"]
    assert [site.callee.qualname for site in sites] == [
        "src/repro/records/parse.py::parse_raw_line"
    ]


def test_resolves_self_method_and_unique_method_name():
    project = project_of(
        {
            "src/repro/core/a.py": """
            class Node:
                def outer(self):
                    self.inner()

                def inner(self):
                    pass
            """,
            "src/repro/core/b.py": """
            def drive(node):
                node.absorb_snapshot()
            """,
            "src/repro/core/c.py": """
            class Sink:
                def absorb_snapshot(self):
                    pass
            """,
        }
    )
    graph = CallGraph(project)
    outer = graph.callees["src/repro/core/a.py::Node.outer"]
    assert [s.callee.name for s in outer] == ["inner"]
    drive = graph.callees["src/repro/core/b.py::drive"]
    assert [s.callee.qualname for s in drive] == [
        "src/repro/core/c.py::Sink.absorb_snapshot"
    ]


def test_ambiguous_container_methods_never_resolve():
    project = project_of(
        {
            "src/repro/core/a.py": """
            class Buffer:
                def append(self, item):
                    pass
            """,
            "src/repro/core/b.py": """
            def fill(items):
                out = []
                out.append(items)
            """,
        }
    )
    graph = CallGraph(project)
    assert graph.callees["src/repro/core/b.py::fill"] == []


def test_callee_first_order_puts_leaves_before_callers():
    project = project_of(
        {
            "src/repro/core/a.py": """
            def top():
                middle()

            def middle():
                bottom()

            def bottom():
                pass
            """
        }
    )
    order = [info.name for info in CallGraph(project).callee_first_order()]
    assert order.index("bottom") < order.index("middle") < order.index("top")


def test_recursive_functions_still_get_an_order():
    project = project_of(
        {
            "src/repro/core/a.py": """
            def ping(n):
                pong(n - 1)

            def pong(n):
                ping(n - 1)
            """
        }
    )
    order = [info.name for info in CallGraph(project).callee_first_order()]
    assert sorted(order) == ["ping", "pong"]


def test_whole_program_lint_builds_one_graph_and_resolves_each_call_once(
    monkeypatch,
):
    graphs = []
    resolutions = Counter()
    build_graph = CallGraph.__init__
    resolve_call = callgraph.Project.resolve_call

    def counting_init(self, project):
        graphs.append(self)
        build_graph(self, project)

    def counting_resolve(self, call, scope):
        resolutions[call] += 1
        return resolve_call(self, call, scope)

    monkeypatch.setattr(CallGraph, "__init__", counting_init)
    monkeypatch.setattr(callgraph.Project, "resolve_call", counting_resolve)
    diagnostics = lint_files(
        {
            "src/repro/core/pipeline.py": """
            def ingest(line, sock):
                record = parse_raw_line(line)
                ship(record, sock)

            def ship(record, sock):
                sock.sendall(record)
            """,
            "src/repro/core/driver.py": """
            from repro.index.perturb import draw_noise_plan

            class Driver:
                def open_publication(self):
                    self._draw(self.config.epsilon)

                def _draw(self, epsilon):
                    return draw_noise_plan(self.tree, epsilon)

                def close_publication(self):
                    self.accountant.grant()
            """,
            "src/repro/index/perturb.py": """
            def draw_noise_plan(tree, epsilon, rng=None):
                pass
            """,
            "src/repro/runtime/router.py": """
            import threading
            from repro.core.node import Node

            class Router:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.node = Node()

                def deliver(self):
                    with self._lock:
                        self.node.absorb()

                def unlocked_entry(self):
                    with self._lock:
                        pass
            """,
            "src/repro/core/node.py": """
            import threading

            class Node:
                def __init__(self):
                    self._guard = threading.Lock()

                def absorb(self):
                    with self._guard:
                        pass

                def reverse(self, router):
                    with self._guard:
                        router.unlocked_entry()
            """,
        }
    )
    # Every whole-program family fired on the shared graph...
    assert codes_of(diagnostics) == [
        "FRQ-L1001", "FRQ-P311", "FRQ-P312", "FRQ-S901",
    ]
    # ...which was built once, resolving each call site at most once.
    assert len(graphs) == 1
    assert resolutions and max(resolutions.values()) == 1
