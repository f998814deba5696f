"""Tests of the benchmark's own arithmetic and tracing.

Run with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

import run
import workloads
from tracing import Tracer

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert run.percentile(values, 0) == 1.0
    assert run.percentile(values, 100) == 4.0
    assert run.median(values) == 2.5
    assert run.percentile(values, 90) == pytest.approx(3.7)
    assert run.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_self_time_is_inclusive_time_minus_child_spans():
    ticks = iter([0.0, 1.0, 4.0, 10.0])  # outer in, inner in/out, outer out
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "special", "call")
    outer = tracer.wrap(lambda: inner(), "kernels", "call")
    outer()
    m = tracer.metrics()
    assert m["special.self_s"] == 3.0
    assert m["kernels.self_s"] == 7.0
    assert m["special.calls"] == 1
    assert m["trace.self_sum_s"] == 10.0


def test_worker_thread_spans_are_thread_seconds_not_main_self_time():
    ticks = iter([0.0, 2.0])
    tracer = Tracer(clock=lambda: next(ticks))
    draw = tracer.wrap(lambda: None, "mc", "draw")
    worker = threading.Thread(target=draw)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    m = tracer.metrics()
    assert m["mc.draw_s"] == 2.0
    assert m["mc.self_s"] == 0.0
    assert m["trace.self_sum_s"] == 0.0


def test_install_traces_calls_made_inside_the_package_and_uninstalls():
    from critgap import fredholm, kernels, special
    gamma, lu_factor = special.gamma, fredholm.lu_factor
    tracer = Tracer()
    tracer.install()
    try:
        assert kernels.gamma.__wrapped__ is gamma
        res = fredholm.gap_probability(2.0, 1.0, "contour-H",
                                       estimate_error=False)
    finally:
        tracer.uninstall()
    assert kernels.gamma is gamma and fredholm.lu_factor is lu_factor
    assert 0.0 < res.p < 1.0
    m = tracer.metrics()
    n = len(kernels.qa_pair(1.0, a_max=2.0, a=2.0).line)
    assert m["special.calls"] > 0
    assert m["contours.builds"] == 4  # the coupling pair and the inner pair
    assert m["kernels.matrices"] == 1
    assert m["kernels.entries"] == n * n
    assert m["fredholm.operators"] == 1
    assert m["fredholm.lu_count"] == 1
    assert m["fredholm.lu_flops"] == pytest.approx(8.0 / 3.0 * n ** 3)
    assert m["trace.self_sum_s"] == pytest.approx(
        sum(m[f"{layer}.self_s"] for layer in ("special", "contours",
                                               "kernels", "fredholm",
                                               "observables", "mc")))


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 3) == workloads.make_inputs(name, 3)
        assert workloads.make_inputs(name, 3) != workloads.make_inputs(name, 4)


def test_benchmark_json_lists_the_metrics_run_py_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
