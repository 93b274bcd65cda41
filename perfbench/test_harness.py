"""Tests of the benchmark harness itself: run with ``python3 -m pytest perfbench``."""

import itertools
import sys
import types

import pytest

from benchstats import percentile, tail_percentile
from tracing import Span, Tracer, self_times, span_metrics


def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_merges_overlapping_and_clips_outlying_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("x", -1.0, 2.0, 0),  # starts before the parent: only [0, 2] counts
        Span("y", 1.0, 3.0, 0),   # overlaps x: [0, 3] is covered once
        Span("z", 12.0, 13.0, 0),  # wholly outside the parent
    ]
    assert self_times(spans)[0] == pytest.approx(7.0)


def test_span_metrics_sum_calls_self_time_and_counts():
    spans = [
        Span("f", 0.0, 2.0, None, {"f.items": 3}),
        Span("g", 0.5, 1.0, 0),
        Span("f", 3.0, 4.0, None, {"f.items": 4}),
    ]
    m = span_metrics(spans)
    assert m["f.calls"] == 2 and m["g.calls"] == 1
    assert m["f.self_s"] == pytest.approx(1.5 + 1.0)
    assert m["f.items"] == 7


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    exec(
        "def inner(n):\n    return n + 1\n"
        "def outer(n, scale=2):\n    return inner(n) * scale\n",
        core.__dict__,
    )
    pkg.outer = core.outer  # re-exported, as a package __init__ does
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.core", core)
    return pkg, core


def test_tracer_records_parents_and_keeps_counting_out_of_spans(fake_package):
    pkg, core = fake_package
    ticks = itertools.count()
    tracer = Tracer("fakepkg", clock=lambda: float(next(ticks)))
    tracer.wrap(core, "inner")
    tracer.wrap(core, "outer", counter=lambda args, result: {"outer.scale": args["scale"]})
    with tracer:
        assert pkg.outer(1) == 4  # the re-exported name is traced too
    outer, inner = tracer.spans
    assert (outer.name, inner.name) == ("core.outer", "core.inner")
    assert outer.parent is None and inner.parent == 0
    assert outer.counts == {"outer.scale": 2}
    # each clock read is one tick; the counter's reads never show in a span
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_tracer_restores_every_attribute_it_wrapped(fake_package):
    pkg, core = fake_package
    originals = (core.inner, core.outer)
    tracer = Tracer("fakepkg")
    tracer.wrap(core, "outer")
    tracer.wrap(core, "inner")
    assert pkg.outer is not originals[1] and core.inner is not originals[0]
    with pytest.raises(TypeError), tracer:
        pkg.outer("not a number")
    assert (core.inner, core.outer, pkg.outer) == (originals[0], originals[1], originals[1])


def test_traced_run_leaves_semlink_attributes_restored():
    import workloads

    modules = {n: m for n, m in sys.modules.items() if n == "semlink" or n.startswith("semlink.")}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    tracer = Tracer("semlink")
    workloads.install_tracing(tracer)
    # a function imported into another module is wrapped under both names
    assert workloads.evaluation.train is workloads.linking_core.train
    assert workloads.linking_core.train is not before["semlink.linking_core"]["train"]
    tracer.close()
    for name, module in modules.items():
        after = vars(module)
        changed = [k for k, v in before[name].items() if after.get(k) is not v]
        assert changed == [], f"{name} still has wrapped attributes {changed}"


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile([float(i) for i in range(1, 100)], 90) is None
    assert tail_percentile([float(i) for i in range(1, 101)], 90) == 90.0
    # ties at the percentile do not count as beyond it
    assert tail_percentile([1.0] * 95 + [2.0] * 10, 90) == 1.0
    assert tail_percentile([1.0] * 91 + [2.0] * 9, 90) is None
    assert tail_percentile([], 90) is None


def test_percentile_is_nearest_rank():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert percentile([5.0], 90) == 5.0
    with pytest.raises(ValueError):
        percentile([1.0], 0)
