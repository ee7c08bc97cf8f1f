"""The tracer survives missing targets and its self times add up."""

import sys
import time
import types

import spans


def _fake_module():
    mod = types.ModuleType("fake_layer")

    def leaf(x):
        time.sleep(0.002)
        return x

    def outer(x):
        time.sleep(0.002)
        return mod.leaf(x) + mod.leaf(x)

    mod.leaf, mod.outer = leaf, outer
    return mod


def test_absent_targets_are_reported_not_raised(monkeypatch):
    monkeypatch.setitem(sys.modules, "fake_layer", _fake_module())
    tracer = spans.Tracer()
    tracer.install([
        ("fake_layer", "outer", "layer.outer", None),
        ("fake_layer", "gone", "layer.gone", None),
        ("no_such_module_anywhere", "f", "layer.f", None),
    ])
    try:
        assert tracer.absent == ["fake_layer.gone", "no_such_module_anywhere.f"]
        assert sys.modules["fake_layer"].outer(1) == 2
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["layer.outer"]
    assert not tracer.installed


def test_self_times_sum_to_the_root_span(monkeypatch):
    mod = _fake_module()
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    tracer = spans.Tracer()
    tracer.install([
        ("fake_layer", "outer", "layer.outer", None),
        ("fake_layer", "leaf", "layer.leaf", lambda args, result: {"items": 1}),
    ])
    try:
        root = tracer.open("cli.run")
        mod.outer(3)
        tracer.close(root)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names == ["cli.run", "layer.outer", "layer.leaf", "layer.leaf"]
    assert tracer.spans[2].parent == 1 and tracer.spans[1].parent == 0
    total = spans.command_self_sum(tracer, root)
    assert abs(total - tracer.spans[root].duration) < 1e-9
    assert tracer.spans[1].self_time < tracer.spans[1].duration
    figures = spans.layer_figures(tracer, 0, len(tracer.spans))
    assert abs(figures["cli.self_s"] - tracer.spans[0].self_time) < 1e-12
    assert figures["simulate.calls"] == 0 and figures["simulate.period_us"] == 0.0
