"""Tests of the benchmark's own helpers.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import json
import sys
import types
from pathlib import Path

import pytest

from perfbench.layers import layer_metrics, pass_values, per_layer_names
from perfbench.metrics import check_name, other_time, percentile, relative_spread
from perfbench.pipeline import parse_validate, parse_xval_error
from perfbench.spans import Layer, SpanRecorder, install


def fake_clock(*ticks):
    values = iter(ticks)
    return lambda: float(next(values))


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # stage [0, 10] > layer a [1, 6] > layer b [2, 5]; layer c [7, 9]
    recorder = SpanRecorder(clock=fake_clock(0, 1, 2, 5, 6, 7, 9, 10))
    with recorder.span("stage"):
        with recorder.span("a"):
            with recorder.span("b"):
                pass
        with recorder.span("c"):
            pass
    assert recorder.self_times() == {"stage": 3.0, "a": 2.0, "b": 3.0, "c": 2.0}
    # Spans are listed as they close: b, a, c, stage.
    b, a, c, stage = recorder.spans
    assert [span[:3] for span in recorder.spans] == [
        ("b", 2.0, 5.0), ("a", 1.0, 6.0), ("c", 7.0, 9.0), ("stage", 0.0, 10.0),
    ]
    assert stage[4] is None
    assert a[4] == stage[3] and c[4] == stage[3] and b[4] == a[3]


def test_self_time_sums_repeated_names():
    recorder = SpanRecorder(clock=fake_clock(0, 1, 2, 3, 5, 10))
    with recorder.span("stage"):
        for _ in range(2):
            with recorder.span("write"):
                pass
    # write spans [1, 2] and [3, 5]
    assert recorder.self_times() == {"stage": 7.0, "write": 3.0}


def test_absorbing_span_keeps_callee_time_and_counts():
    recorder = SpanRecorder(clock=fake_clock(0, 4))
    inner_hook_contexts = []

    def hook(rec, absorber, args):
        inner_hook_contexts.append(absorber)
        return lambda result: rec.count("inner.calls")

    def inner():
        return 1

    def outer():
        return recorder.call("inner", inner, (), {}, hook=hook) + 1

    assert recorder.call("outer", outer, (), {}, absorb=True) == 2
    assert recorder.self_times() == {"outer": 4.0}
    assert inner_hook_contexts == ["outer"]
    assert recorder.counts["inner.calls"] == 1


def test_install_wraps_functions_and_methods_then_restores():
    module = types.ModuleType("repro._perfbench_probe")
    alias = types.ModuleType("repro._perfbench_alias")

    def leaf(x):
        return x * 2

    class Thing:
        def method(self, x):
            return leaf(x) + 1

        @classmethod
        def build(cls):
            return cls()

    module.leaf, module.Thing = leaf, Thing
    alias.leaf = leaf  # a `from module import leaf` elsewhere
    sys.modules[module.__name__] = module
    sys.modules[alias.__name__] = alias
    try:
        recorder = SpanRecorder()
        uninstall = install(recorder, [
            Layer(module.__name__, "leaf", "probe.leaf"),
            Layer(module.__name__, "Thing.method", "probe.method"),
            Layer(module.__name__, "Thing.build", "probe.build"),
        ])
        assert module.leaf is not leaf and alias.leaf is module.leaf
        assert isinstance(Thing.build(), Thing)
        assert Thing().method(3) == 7  # calls the original leaf, untraced
        assert alias.leaf(1) == 2
        assert [span[0] for span in recorder.spans] == [
            "probe.build", "probe.method", "probe.leaf",
        ]  # each closed before the next call
        uninstall()
        assert module.leaf is leaf and alias.leaf is leaf
        assert "method" in Thing.__dict__ and Thing.__dict__["method"].__name__ == "method"
        assert isinstance(Thing.__dict__["build"], classmethod)
        Thing().method(1)
        assert len(recorder.spans) == 3
    finally:
        del sys.modules[module.__name__], sys.modules[alias.__name__]


# -- percentile rule ---------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(1, 100)), 0.9) is None  # 9 beyond rank 90
    assert percentile(list(range(1, 101)), 0.9) == 90.0  # 10 beyond
    assert percentile(list(range(1, 20)), 0.5) is None
    assert percentile(list(range(1, 21)), 0.5) == 10.0
    assert percentile([], 0.5) is None


def test_percentile_is_order_free_and_checks_q():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
    assert percentile(samples, 0.5) == 3.0
    with pytest.raises(ValueError):
        percentile(samples, 1.0)


def test_relative_spread_uses_quartiles_over_median():
    assert relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert relative_spread([10.0] * 4) == 0.0


# -- metric names ------------------------------------------------------------

@pytest.mark.parametrize("name", ["setup_s", "collect.engine_s", "p-90.x", "9lives", "a" * 64])
def test_valid_metric_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "lat/ms", "é", "a" * 65, None])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_every_per_layer_name_is_valid_and_unique():
    names = [name for name, _ in per_layer_names()]
    assert len(names) == len(set(names))
    assert "collect.other_s" in names and "trace.overhead_s" in names


def test_manifest_per_layer_list_matches_the_traced_report():
    manifest = json.loads(
        (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
    )
    listed = [(entry["name"], entry["unit"]) for entry in manifest["per_layer"]]
    assert listed == per_layer_names()


def test_layer_metrics_fills_absent_stage_figures_with_zero():
    values = pass_values({}, {})
    out = layer_metrics([values], [2.0], [1.5], {"commit_p50_ms": 9.0})
    assert [(name, entry["unit"]) for name, entry in out.items()] == per_layer_names()
    assert out["commit_p50_ms"] == {"value": 9.0, "unit": "ms"}
    assert out["train_s"]["value"] == 0.0
    assert out["trace.overhead_s"]["value"] == 0.5
    with pytest.raises(ValueError):
        layer_metrics([values], [2.0], [1.5], {"wall_s": 1.0})


# -- <stage>.other_s ---------------------------------------------------------

def test_other_time_is_wall_minus_named_self_times():
    assert other_time(10.0, {"a": 3.0, "b": 2.5}) == 4.5
    assert other_time(1.0, {}) == 1.0


def test_stage_other_s_closes_the_stage_wall_time():
    # collect stage [0, 10] > collect.engine [1, 7] > collect.write [2, 4]
    recorder = SpanRecorder(clock=fake_clock(0, 1, 2, 4, 7, 10))
    with recorder.span("collect"):
        with recorder.span("collect.engine"):
            with recorder.span("collect.write"):
                pass
    values = pass_values(recorder.self_times(), recorder.counts)
    assert values["collect.engine_s"] == 4.0
    assert values["collect.write_s"] == 2.0
    assert values["collect.other_s"] == 4.0
    named = values["collect.engine_s"] + values["collect.write_s"]
    assert named + values["collect.other_s"] == 10.0
    assert values["train.other_s"] == 0.0


def test_outer_stage_other_s_for_a_stage_timed_elsewhere():
    values = pass_values({"serve.commit": 1.5, "serve.fold": 2.0},
                         {"serve.manifest_loads": 7}, outer_stage=("serve", 5.0))
    assert values["serve.other_s"] == 1.5
    assert values["serve.manifest_loads"] == 7.0


# -- output parsing ----------------------------------------------------------

VALIDATE_OUT = """\
           class |      n(o/s) | feat dev% | lat dev% |     KS | profiles
-------------------------------------------------------------------------
        read_64K |  1178/1178  |      0.00 |    15.42 |  0.171 |        1
        write_4M |   822/822   |      0.25 |     1.95 |  0.089 |        1
            tiny |     3/0     | skipped: too few requests
           <mix> |  2000/2000  |      0.00 |    15.42 |  0.112 |        2
classes validated: 2/3  worst feature deviation: 0.25%
"""

PLAN_OUT = """\
knee: first infeasible multiplier 7.07x (bottleneck disk saturates)
cross-validation (analytic vs targeted simulation):
    mult |    rate/s | simulated ms | analytic ms | rel err%
------------------------------------------------------------
    1.00 |     25.00 |        9.675 |      10.035 |     3.72
"""


def test_parse_validate_rows_and_skipped_classes():
    rows, skipped = parse_validate(VALIDATE_OUT)
    assert rows == [("read_64K", 0.0, 15.42), ("write_4M", 0.25, 1.95)]
    assert skipped == ["tiny"]


def test_parse_xval_error():
    assert parse_xval_error(PLAN_OUT) == 3.72
    assert parse_xval_error(PLAN_OUT, multiplier=2.0) is None
    assert parse_xval_error("no table here") is None
