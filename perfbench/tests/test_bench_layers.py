import pytest
from lqbench.layers import per_layer_metrics
from lqbench.tracing import Tracer


class Tick:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def record(tree):
    """Replay a call tree (name, attrs, children) through a tracer."""
    tracer = Tracer(clock=Tick())

    def visit(node):
        name, attrs, children = node
        span = tracer.open(name, dict(attrs))
        for child in children:
            visit(child)
        tracer.close(span)

    for node in tree:
        visit(node)
    return tracer.spans


def fq(kind="int", values=100):
    return ("formats.fake_quant", {"kind": kind, "values": values, "fmt": "SINT4",
                                   "shape": [10, 10]}, [])


def rotation_step():
    return [("rotation.rotation_grad", {}, [("numerics.cayley_retract", {}, []),
                                            fq(), fq()]),
            ("numerics.cayley_retract", {}, []), fq(), fq()]


LAYER = [
    ("cli.quantize", {}, [
        ("bundle_io.load_tensor", {}, []),
        ("pipeline.assemble_layer", {}, [
            ("absorber.optimize_factors",
             {"steps": 2, "fmt": "SINT4", "shape": [10, 10],
              "init_loss": 4.0, "best_loss": 1.0, "best_index": 1},
             [("absorber.init_factors", {}, [
                 ("numerics.truncated_svd", {"shape": [10, 10]}, [])]),
              fq(), fq(), fq()]),
            ("rotation.optimize_rotation",
             {"steps": 2, "fmt": "SINT4", "shape": [10, 4],
              "init_loss": 2.0, "best_loss": 2.0, "best_index": 0},
             [("numerics.cayley_retract", {}, []), fq(), fq(),
              *rotation_step(), *rotation_step()]),
        ]),
        ("pipeline.error_report", {}, [fq(kind="minifloat")]),
        ("bundle_io.save_bundle", {}, []),
    ]),
    ("bundle_io.load_bundle", {}, []),
    ("pipeline.forward", {"batch": 1, "shape": [10, 10]},
     [("formats.dequantize", {}, [])] * 3),
]


@pytest.fixture
def metrics():
    spans = record(LAYER)
    wall = spans[-1].end - spans[0].start
    return spans, per_layer_metrics(spans, layers=1, traced_wall=wall,
                                    untraced_wall=wall / 1.1)


def test_counts_per_layer_and_per_step(metrics):
    _, m = metrics
    assert m["numerics.truncated_svd.calls"] == 1
    assert m["numerics.cayley_retract.calls_per_step"] == 2
    assert m["rotation.fake_quant_calls_per_step"] == 4
    assert m["formats.dequantize.calls_per_forward"] == 3
    assert m["formats.fake_quant.calls"] == 3 + 2 + 8 + 1


def test_absorber_step_excludes_the_svd_init(metrics):
    spans, m = metrics
    (opt,) = [s for s in spans if s.name == "absorber.optimize_factors"]
    (init,) = [s for s in spans if s.name == "absorber.init_factors"]
    assert m["absorber.step_ms"] == pytest.approx(
        1e3 * (opt.duration - init.duration) / 2)
    fq_time = sum(s.duration for s in spans
                  if s.name == "formats.fake_quant" and opt.start < s.start < opt.end)
    assert m["absorber.fake_quant_share"] == pytest.approx(
        fq_time / (opt.duration - init.duration))


def test_optimizer_quality_from_the_loss_trace(metrics):
    _, m = metrics
    assert m["absorber.loss_ratio"] == 0.25
    assert m["absorber.useful_step_frac"] == 0.5
    assert m["rotation.loss_ratio"] == 1.0
    assert m["rotation.useful_step_frac"] == 0.0


def test_split_by_codec_and_caller(metrics):
    _, m = metrics
    assert m["formats.fake_quant.minifloat.ms"] == 1e3
    assert m["pipeline.error_report.quantize.s"] > 0
    assert m["pipeline.error_report.evaluate.s"] == 0


def test_cli_overhead_is_its_self_time(metrics):
    spans, m = metrics
    (q,) = [s for s in spans if s.name == "cli.quantize"]
    children = sum(s.duration for s in spans if s.parent == q.id)
    assert m["cli.overhead_s"] == pytest.approx(q.duration - children)


def test_trace_figures(metrics):
    spans, m = metrics
    assert m["trace.overhead_frac"] == pytest.approx(0.1)
    top = sum(s.duration for s in spans if s.parent is None)
    assert m["trace.coverage"] == pytest.approx(top / (spans[-1].end - spans[0].start))


def test_no_work_reads_zero():
    m = per_layer_metrics([], layers=1, traced_wall=1.0, untraced_wall=1.0)
    assert m["smoothing.grid_search.s"] == 0
    assert m["absorber.step_ms"] == 0
