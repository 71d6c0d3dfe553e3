import numpy as np
import pytest

import tracer
from tracer import Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] has children [10, 40] and [50, 90]; [10, 40] has child [15, 25]
    parents = np.array([-1, 0, 1, 0])
    starts = np.array([0, 10, 15, 50])
    ends = np.array([100, 40, 25, 90])
    assert self_times(parents, ends - starts).tolist() == [30, 20, 10, 40]


def ticking_clock(step=10):
    now = [0]

    def clock():
        now[0] += step
        return now[0]

    return clock


def test_nested_wrapped_calls_give_calls_busy_and_self_time():
    t = Tracer(clock=ticking_clock())
    inner = t.wrap("su2.hermitian_sqrt", lambda x: x)

    def pipeline():
        return inner(1) + inner(2)

    outer = t.wrap("cli.run_scenario", pipeline)
    assert outer() == 3
    # clock reads: outer 10, inner 20-30, inner 40-50, outer 60
    m = t.layer_metrics()
    assert m["su2.hermitian_sqrt.calls"] == 2
    assert m["su2.hermitian_sqrt.self_s"] == pytest.approx(20e-9)
    assert m["cli.pipeline.self_s"] == pytest.approx(30e-9)


def test_escaping_exception_is_counted_in_every_layer_it_leaves():
    t = Tracer(clock=ticking_clock())

    def boom():
        raise ValueError("bad matrix")

    inner = t.wrap("su2.complex2x2", boom)
    outer = t.wrap("dyson.invert_dyson_map", lambda: inner())
    with pytest.raises(ValueError):
        outer()
    m = t.layer_metrics()
    assert (m["su2.errors"], m["dyson.errors"], m["cli.errors"]) == (1, 1, 0)
    assert t.stack == [-1]


def test_install_patches_every_binding_and_uninstall_restores():
    from dysonflow import cli, dyson, su2

    original = su2.hermitian_sqrt
    t = Tracer()
    t.install()
    try:
        assert su2.hermitian_sqrt is not original
        assert dyson.hermitian_sqrt is su2.hermitian_sqrt is cli.hermitian_sqrt
    finally:
        t.uninstall()
    assert su2.hermitian_sqrt is dyson.hermitian_sqrt is cli.hermitian_sqrt is original


def test_rk4_error_check_steps_are_told_apart():
    from dysonflow import _integrate

    t = Tracer()
    t.install()
    try:
        _integrate.rk4_series(lambda _t, y: -1j * y, np.ones(2), 0.0, 1e-2, 200, check_every=100)
    finally:
        t.uninstall()
    m = t.layer_metrics()
    # 200 full steps plus, at steps 0 and 100, two half steps each
    assert m["integrate.rk4_series.steps"] == 200
    assert m["integrate.rk4_series.rhs_calls"] == 4 * 204
    assert m["integrate.check_rhs_frac"] == pytest.approx(16 / 816)


def test_every_target_exists_in_the_program():
    import importlib

    for _, module, fn in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"dysonflow.{module}"), fn))
