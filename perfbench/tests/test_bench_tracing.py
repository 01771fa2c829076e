import types

import pytest
from lqbench.tracing import Span, Tracer, descendants, self_times


def span(id, parent, start, end, name="x"):
    return Span(id=id, name=name, parent=parent, root=0, start=start, end=end)


class TestSelfTimes:
    def test_leaf_keeps_its_duration(self):
        assert self_times([span(0, None, 1.0, 4.0)]) == {0: 3.0}

    def test_children_are_subtracted(self):
        spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 3.0), span(2, 0, 5.0, 6.0)]
        assert self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [span(0, None, 0.0, 10.0), span(1, 0, 2.0, 8.0), span(2, 1, 3.0, 5.0)]
        assert self_times(spans) == {0: 4.0, 1: 4.0, 2: 2.0}

    def test_overlapping_children_count_once(self):
        spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 5.0), span(2, 0, 4.0, 6.0)]
        assert self_times(spans)[0] == pytest.approx(5.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, None, 0.0, 4.0), span(1, 0, 3.0, 6.0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_top_level_self_times_sum_to_the_covered_wall(self):
        spans = [span(0, None, 0.0, 3.0), span(1, 0, 1.0, 2.0),
                 span(2, None, 3.5, 5.0), span(3, 2, 3.5, 5.0)]
        assert sum(self_times(spans).values()) == pytest.approx(4.5)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestTracer:
    def test_wrap_records_nested_spans_and_uninstall_restores(self):
        mod = types.SimpleNamespace()
        mod.inner = lambda x: x + 1
        mod.outer = lambda x: mod.inner(x) * 2
        original_inner = mod.inner
        tracer = Tracer(clock=FakeClock())
        tracer.wrap(mod, "inner", "m.inner", describe=lambda x: {"x": x})
        tracer.wrap(mod, "outer", "m.outer", on_result=lambda r: {"result": r})
        assert mod.outer(3) == 8
        tracer.uninstall()
        assert mod.inner is original_inner
        inner, outer = sorted(tracer.spans, key=lambda s: s.name)
        assert (inner.name, inner.parent, inner.root, inner.attrs) == (
            "m.inner", outer.id, outer.id, {"x": 3})
        assert outer.parent is None and outer.attrs == {"result": 8}
        assert outer.start < inner.start < inner.end < outer.end
        assert descendants(tracer.spans, outer) == [inner]

    def test_span_closes_when_the_call_raises(self):
        mod = types.SimpleNamespace(f=lambda: 1 / 0)
        tracer = Tracer(clock=FakeClock())
        tracer.wrap(mod, "f", lambda: "dyn")
        with pytest.raises(ZeroDivisionError):
            mod.f()
        (s,) = tracer.spans
        assert s.name == "dyn" and s.end > s.start

    def test_out_of_order_close_is_an_error(self):
        tracer = Tracer(clock=FakeClock())
        a = tracer.open("a")
        tracer.open("b")
        with pytest.raises(RuntimeError):
            tracer.close(a)
