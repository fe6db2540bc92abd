"""Self time, leaf aggregation and attribute patching."""

from fqbench.spans import Patches, Span, Tracer, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children_and_leaves():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.open("outer")  # 0 .. 10
    clock.now = 1.0
    inner = tracer.open("inner")  # 1 .. 4
    clock.now = 2.0
    tracer.add_leaf("leaf", 0.5)  # inside inner
    clock.now = 4.0
    tracer.close(inner)
    tracer.add_leaf("leaf", 1.0)  # inside outer
    clock.now = 6.0
    second = tracer.open("inner")  # 6 .. 7
    clock.now = 7.0
    tracer.close(second)
    clock.now = 10.0
    tracer.close(outer)
    own = self_times(tracer.spans)
    assert own[inner.id] == 3.0 - 0.5
    assert own[second.id] == 1.0
    assert own[outer.id] == 10.0 - 3.0 - 1.0 - 1.0
    layers = tracer.layers()
    assert layers["inner"].calls == 2
    assert layers["inner"].self_s == 3.5
    assert layers["leaf"].calls == 2
    assert layers["leaf"].self_s == 1.5
    assert tracer.leaves_under("outer", "leaf") == (1, 1.0)
    assert tracer.leaves_under("inner", "leaf") == (1, 0.5)


def test_overlapping_children_are_not_subtracted_twice():
    parent = Span(0, "p", 0.0, None, end=10.0)
    spans = [
        parent,
        Span(1, "a", 1.0, 0, end=5.0),
        Span(2, "b", 3.0, 0, end=6.0),  # overlaps a (another thread)
        Span(3, "c", 8.0, 0, end=12.0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == 10.0 - 5.0 - 2.0


def test_leaf_outside_any_span_lands_in_orphans():
    tracer = Tracer(FakeClock())
    tracer.add_leaf("dispatcher", 0.25)
    tracer.add_leaf("dispatcher", 0.25)
    assert tracer.orphans() == {"dispatcher": [2, 0.5]}
    assert tracer.layers()["dispatcher"].calls == 2


def test_spanned_wrapper_counts_units_and_closes_on_error():
    tracer = Tracer(FakeClock())
    wrapped = tracer.spanned("work", lambda items: len(items), units=len)
    assert wrapped([1, 2, 3]) == 3

    def boom():
        raise ValueError

    failing = tracer.spanned("fail", boom)
    try:
        failing()
    except ValueError:
        pass
    assert [s.name for s in tracer.spans] == ["work", "fail"]
    assert tracer.layers()["work"].units == 3


def test_patches_restore_class_and_instance_attributes():
    class Thing:
        def method(self):
            return "class"

    thing = Thing()
    thing.field = "own"
    with Patches() as patches:
        patches.set(thing, "method", lambda: "patched")
        patches.set(thing, "field", "patched")
        assert thing.method() == "patched"
        assert thing.field == "patched"
    assert thing.method() == "class"
    assert "method" not in vars(thing)
    assert thing.field == "own"
