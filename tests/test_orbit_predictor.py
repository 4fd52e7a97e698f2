"""The waveform-relaxation sweeps that start the orbit search near the orbit."""

import json
import math
import warnings

import numpy as np
import pytest

from periodyn import periodic
from periodyn.certify import find_decay_rate, find_weights
from periodyn.config import parse_config
from periodyn.expressions import const, term_expr
from periodyn.kernels import Atom, DelayKernel
from periodyn.model import Activation, ConstantIC
from periodyn.periodic import NoConvergenceError, find_periodic_orbit

from helpers import scalar_model
from test_read_plan import DISTRIBUTED

D, A, OMEGA = 1.5, 0.8, 2.0  # u' = -D u + A sin(2 pi t / OMEGA)


def _recorded_maps(monkeypatch):
    """(input, output window) of every period map, and (result, residuals) of every prediction."""
    maps, predictions = [], []
    advance, predict = periodic._advance_one_period, periodic._predict

    def recorded_map(model, ic, h):
        window, traj = advance(model, ic, h)
        maps.append((ic, window))
        return window, traj

    def recorded_prediction(*args):
        predictions.append(predict(*args))
        return predictions[-1]

    monkeypatch.setattr(periodic, "_advance_one_period", recorded_map)
    monkeypatch.setattr(periodic, "_predict", recorded_prediction)
    return maps, predictions


@pytest.mark.parametrize("h", [1e-2, 5e-3])
def test_sweep_fixed_point_is_fourth_order_in_h(h):
    model = scalar_model(D, inputs=term_expr("sin", A, 1), omega=OMEGA, g=Activation.zero())
    steps = round(OMEGA / h)  # a window of one whole period, [-omega, 0]
    window, residuals = periodic._predict(model, ConstantIC((0.0,)), h, 1e-13, np.ones(1), steps)
    w = 2.0 * math.pi / OMEGA
    t = h * np.arange(-steps, 1)
    exact = A * (D * np.sin(w * t) - w * np.cos(w * t)) / (D * D + w * w)
    slope = A * w * (D * np.cos(w * t) + w * np.sin(w * t)) / (D * D + w * w)
    assert residuals[-1] <= 1e-13
    # Simpson's rule on each step: the error is 0.0117 h^4 at both steps
    assert np.abs(window[:steps + 1, 0] - exact).max() <= 0.02 * h ** 4
    assert np.abs(window[steps + 1:, 0] - slope).max() <= 0.03 * h ** 4


@pytest.mark.parametrize("h, most", [(1e-2, 5), (2e-3, 3)])
def test_builtin_search_needs_few_maps_after_the_sweeps(builtin, builtin_cert, h, most):
    seg, residual, iterations = find_periodic_orbit(builtin, ConstantIC((0.0,) * 3), h,
                                                    fp_tol=1e-10, xi=builtin_cert.xi)
    assert residual <= 1e-10
    assert iterations <= most
    assert iterations == len(seg.residual_history) + 1
    assert len(seg.predictor_residuals) > 1 and seg.predictor_residuals[-1] <= 1e-10


def test_builtin_hands_the_sweeps_window_to_the_second_map(monkeypatch, builtin, builtin_cert):
    maps, predictions = _recorded_maps(monkeypatch)
    ic = ConstantIC((0.0,) * 3)
    seg, _, _ = find_periodic_orbit(builtin, ic, 1e-2, xi=builtin_cert.xi)
    (window, residuals), = predictions
    assert maps[0][0] is ic
    assert np.array_equal(maps[1][0].values, window[:len(window) // 2])
    assert np.array_equal(maps[1][0].derivs, window[len(window) // 2:])
    assert seg.predictor_residuals == tuple(residuals)


def test_a_non_contracting_model_falls_back_to_the_plain_search(monkeypatch):
    # the model of test_restart_takes_the_plain_step: the delayed gain 4 outweighs d = 1
    m = scalar_model(1.0, kernel=DelayKernel((Atom(1.0, const(-4.0)),)), g=Activation.zero())
    maps, predictions = _recorded_maps(monkeypatch)
    ic = ConstantIC((1.0,))
    with pytest.raises(NoConvergenceError):
        find_periodic_orbit(m, ic, 0.01, max_iters=5)
    (window, residuals), = predictions
    assert window is None and residuals[-1] > residuals[-2]  # the sweeps ran and grew
    assert maps[0][0] is ic
    assert np.array_equal(maps[1][0].values, maps[0][1].values)  # G(ic0), not a prediction


def test_many_reads_per_sample_skip_the_sweeps(monkeypatch):
    model = parse_config(json.dumps(DISTRIBUTED))
    maps, predictions = _recorded_maps(monkeypatch)
    ic = ConstantIC((0.0,) * model.n)
    seg, _, _ = find_periodic_orbit(model, ic, 1e-2, fp_tol=1e-8)
    assert periodic._period_plan(model, 1e-2, 400).col.size > periodic.PREDICTOR_MAX_READS
    assert predictions == [(None, [])] and seg.predictor_residuals == ()
    assert maps[0][0] is ic
    assert np.array_equal(maps[1][0].values, maps[0][1].values)


def test_a_stiff_period_sweeps_without_overflow():
    # the integral of d over the period is 1000: e^1000 overflows, and no step may form it
    model = scalar_model(500.0, inputs=term_expr("sin", 1.0, 1), omega=2.0, g=Activation.zero())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seg, residual, _ = find_periodic_orbit(model, ConstantIC((0.0,)), 2e-3)
    assert residual <= 1e-10 and seg.predictor_residuals
    t = np.arange(seg.values.shape[0]) * 2e-3
    w = math.pi
    exact = (500.0 * np.sin(w * t) - w * np.cos(w * t)) / (500.0 ** 2 + w * w)
    assert np.abs(seg.values[:, 0] - exact).max() <= 1e-8  # RK4's error at h d = 1


def test_a_window_farther_from_the_orbit_than_g_ic0_is_dropped(monkeypatch):
    # u' = -500 u + tanh(u(t - 0.5)) + sin(pi t): q = e^{-alpha omega} is 1.8e-11, so G(ic0)
    # lies far nearer the orbit than the sweeps' window, 6.8e-7 from it
    model = scalar_model(500.0, kernel=DelayKernel((Atom(0.5, const(1.0)),)), omega=2.0,
                         inputs=term_expr("sin", 1.0, 1), g=Activation.zero(), f=Activation.tanh())
    cert = find_weights(model, grid_points=512)
    alpha = find_decay_rate(model, cert.xi, grid_points=512)
    maps, predictions = _recorded_maps(monkeypatch)
    seg, residual, iterations = find_periodic_orbit(model, ConstantIC((0.0,)), 2e-3, xi=cert.xi,
                                                    alpha=alpha)
    (window, _), = predictions
    assert window is not None and residual <= 1e-10
    assert iterations == 2  # as plain iteration takes
    assert np.array_equal(maps[1][0].values, maps[0][1].values)  # G(ic0), not the window
    assert seg.quotients == ()  # no pair of iterates before the second map


def test_builtin_keeps_the_sweeps_window_at_its_certified_rate(monkeypatch, builtin, builtin_cert,
                                                              builtin_alpha):
    maps, predictions = _recorded_maps(monkeypatch)
    _, _, iterations = find_periodic_orbit(builtin, ConstantIC((0.0,) * 3), 1e-2,
                                           xi=builtin_cert.xi, alpha=builtin_alpha)
    (window, _), = predictions
    assert np.array_equal(maps[1][0].values, window[:len(window) // 2])
    assert iterations == 5


def test_identical_searches_give_identical_segments(builtin, builtin_cert):
    runs = [find_periodic_orbit(builtin, ConstantIC((0.0,) * 3), 1e-2, xi=builtin_cert.xi)
            for _ in range(2)]
    (a, res_a, it_a), (b, res_b, it_b) = runs
    assert (res_a, it_a) == (res_b, it_b)
    assert np.array_equal(a.values, b.values) and np.array_equal(a.derivs, b.derivs)
    assert a.residual_history == b.residual_history and a.quotients == b.quotients
    assert a.predictor_residuals == b.predictor_residuals


def test_a_window_a_whole_period_long_takes_the_sweeps(monkeypatch):
    # u' = -2u + u(t - 1) + sin(2 pi t), omega = 1: every read lies a whole period back
    lag_one = scalar_model(2.0, kernel=DelayKernel((Atom(1.0, const(1.0)),)), g=Activation.zero(),
                           inputs=term_expr("sin", 1.0, 2))
    seg, residual, iterations = find_periodic_orbit(lag_one, ConstantIC((0.0,)), 1e-2)
    assert residual <= 1e-10 and seg.predictor_residuals[-1] <= 1e-10
    monkeypatch.setattr(periodic, "PREDICTOR_MAX_READS", -1)
    plain, _, plain_iterations = find_periodic_orbit(lag_one, ConstantIC((0.0,)), 1e-2)
    assert plain.predictor_residuals == () and iterations < plain_iterations
    assert np.abs(seg.values - plain.values).max() <= 1e-10
