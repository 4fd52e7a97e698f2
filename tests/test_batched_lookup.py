"""The batched history lookup and the batched stage against their scalar forms."""

import math

import numpy as np
import pytest

from periodyn.expressions import const, term_expr
from periodyn.integrate import HistoryBuffer, HistoryUnderrunError, simulate
from periodyn.kernels import (Atom, DelayKernel, DistributedPart, ExponentialDensity,
                              TableDensity, UniformDensity)
from periodyn.model import Activation, ConstantIC, ExprIC, SampledIC

from helpers import density_quadrature, lookup_batch, lookup_scalar, rhs, scalar_model

H = 0.05
IC_STEPS = 6


def _sampled_ic(rng):
    shape = (IC_STEPS + 1, 2)
    return SampledIC(start=-IC_STEPS * H, step=H, values=rng.normal(size=shape),
                     derivs=rng.normal(size=shape))


def _buffer(count, seed=11):
    """Two units, a same-step sampled initial history and ``count`` run nodes."""
    rng = np.random.default_rng(seed)
    ic = _sampled_ic(rng)
    hist = HistoryBuffer(ic, 0.0, H, 2)
    for v, m in zip(rng.normal(size=(count, 2)), rng.normal(size=(count, 2))):
        hist.append(v, m)
    hist.horizon = max(hist.last_time, 0.0) + 0.5 * H
    return ic, hist


def _times(lo, hi, rng, nodes=()):
    return np.concatenate([rng.uniform(lo, hi, size=40), np.asarray(nodes, dtype=float)])


def _assert_batch_equals_scalar(hist, times, rng):
    cols = rng.integers(0, 2, size=times.size)
    batch = lookup_batch(hist, times, cols)
    scalar = np.array([lookup_scalar(hist, float(t), int(j)) for t, j in zip(times, cols)])
    assert np.array_equal(batch, scalar)
    return cols, batch


class TestBatchedLookup:
    @pytest.mark.parametrize("region", ["before", "initial", "inside", "past"])
    def test_equals_scalar_bit_for_bit(self, region):
        ic, hist = _buffer(count=9)
        rng = np.random.default_rng(3)
        last = hist.last_time
        lo, hi, nodes = {
            "before": (-1.0, -IC_STEPS * H, [-IC_STEPS * H]),
            "initial": (-IC_STEPS * H, 0.0, [-2 * H, 0.0]),
            "inside": (0.0, last, [H, 4 * H, last]),
            "past": (last, hist.horizon, [hist.horizon]),
        }[region]
        cols, batch = _assert_batch_equals_scalar(hist, _times(lo, hi, rng, nodes), rng)
        if region == "before":  # constant before the first node
            assert np.array_equal(batch, ic.values[0, cols])

    def test_initial_block_is_the_initial_history(self):
        ic, hist = _buffer(count=9)
        rng = np.random.default_rng(4)
        times = _times(-IC_STEPS * H, 0.0, rng)
        cols = rng.integers(0, 2, size=times.size)
        expected = [ic.eval_component(float(t), int(j)) for t, j in zip(times, cols)]
        np.testing.assert_allclose(lookup_batch(hist, times, cols), expected,
                                   rtol=0.0, atol=1e-13)
        # the start time reads the initial node, not the run's node 0
        assert np.array_equal(lookup_batch(hist, np.zeros(2), np.arange(2)), ic.values[-1])

    def test_single_node_taylor_step(self):
        ic, hist = _buffer(count=1)
        rng = np.random.default_rng(5)
        times = _times(-IC_STEPS * H, hist.horizon, rng, [0.0, hist.horizon])
        cols, batch = _assert_batch_equals_scalar(hist, times, rng)
        after = times > 0.0
        node, slope = hist.values[0, cols], hist.derivs[0, cols]
        assert np.array_equal(batch[after], (node + times * slope)[after])

    def test_one_time_past_horizon_raises(self):
        _, hist = _buffer(count=9)
        times = np.array([-0.1, 0.1, hist.horizon + 0.01 * H, 0.2])
        with pytest.raises(HistoryUnderrunError):
            lookup_batch(hist, times, np.zeros(4, dtype=int))


class TestWindow:
    def test_short_run_pads_constant_history(self):
        traj = simulate(scalar_model(1.0, inputs=const(1.0)), ConstantIC((0.4,)), 0.2, H)
        win = traj.history.window(10)
        assert win.values.shape == (11, 1) and win.start == pytest.approx(-10 * H)
        assert np.all(win.values[:7] == 0.4) and np.all(win.derivs[:6] == 0.0)
        assert np.array_equal(win.values[6:], traj.states)

    def test_short_run_keeps_sampled_nodes(self):
        ic, hist = _buffer(count=3)
        win = hist.window(5)
        assert np.array_equal(win.values[:3], ic.values[-4:-1])
        assert np.array_equal(win.derivs[:3], ic.derivs[-4:-1])
        assert np.array_equal(win.values[3:], hist.values[:3])


_SHAPES = [ExponentialDensity(12.0), UniformDensity(0.5),
           TableDensity((0.0, 0.25, 0.5), (0.0, 4.0, 0.0))]


@pytest.mark.parametrize("shape", _SHAPES, ids=["exponential", "uniform", "table"])
def test_stage_density_sum_matches_scalar_quadrature(shape):
    h = 0.01
    model = scalar_model(1.5, tau=const(0.07), f=Activation.tanh(),
                         kernel=DelayKernel(density=DistributedPart(shape, const(0.7))))
    traj = simulate(model, ConstantIC((0.3,)), 1.0, h)
    hist = traj.history
    for k in (3, 40, traj.times.size - 1):
        t, u = float(traj.times[k]), float(traj.states[k, 0])
        quad = density_quadrature(
            shape, lambda s: math.tanh(lookup_scalar(hist, t - 0.07 - s, 0)), step=h)
        du = rhs(model, t, np.array([u]), hist, quad_step=h)[0]
        assert du == pytest.approx(-1.5 * u + 0.7 * quad, rel=0.0, abs=1e-13)


def test_expression_history_half_period_delay():
    # history sin(2 pi t) read half a period back: u' = -u + 0.5 sin(2 pi t) on [0, 1/2]
    model = scalar_model(1.0, kernel=DelayKernel((Atom(0.5, const(-0.5)),)))
    traj = simulate(model, ExprIC((term_expr("sin", 1.0, 2),)), 1.0, 1e-3)
    w = 2.0 * math.pi
    t = traj.times[traj.times <= 0.5]
    exact = 0.5 / (1.0 + w * w) * (np.sin(w * t) - w * np.cos(w * t) + w * np.exp(-t))
    assert np.abs(traj.states[: t.size, 0] - exact).max() <= 1e-8
