"""One right-hand side and one Hermite dense output, seen from every caller."""

import numpy as np
import pytest

from periodyn.expressions import const
from periodyn.integrate import HistoryBuffer, simulate
from periodyn.kernels import DelayKernel, DistributedPart, ExponentialDensity
from periodyn.model import Activation, ConstantIC, SampledIC
from periodyn.periodic import PeriodSegment

from helpers import derivative, eval_coefficients, lookup, lookup_scalar, rhs, scalar_model


def test_rhs_reproduces_node_slopes(builtin):
    h = 1e-2
    traj = simulate(builtin, ConstantIC((0.5, -1.0, 2.0)), 1.0, h)
    checked = 0
    for k in range(1, traj.times.size - 1):
        t = float(traj.times[k])
        # a delay below h reads the newest interval, whose end slope was
        # still provisional when the node slope was computed
        if eval_coefficients(builtin, t).tau.min() < h:
            continue
        du = rhs(builtin, t, traj.states[k], traj.history)
        np.testing.assert_allclose(du, traj.history.derivs[k], rtol=0.0, atol=1e-12)
        checked += 1
    assert checked > 50


def test_rhs_integrates_densities_at_the_history_step():
    h = 1e-2
    density = DistributedPart(ExponentialDensity(12.0), const(0.7))
    model = scalar_model(1.5, tau=const(0.07), f=Activation.tanh(),
                         kernel=DelayKernel(density=density))
    traj = simulate(model, ConstantIC((0.3,)), 1.0, h)
    for k in (3, 40, traj.times.size - 2):
        du = rhs(model, float(traj.times[k]), traj.states[k], traj.history)
        np.testing.assert_allclose(du, traj.history.derivs[k], rtol=0.0, atol=1e-12)


@pytest.fixture(scope="module")
def nodes():
    rng = np.random.default_rng(5)
    return 0.05, rng.normal(size=(21, 2)), rng.normal(size=(21, 2))


def test_dense_outputs_agree_inside_nodes(nodes):
    h, values, derivs = nodes
    hist = HistoryBuffer(ConstantIC((0.0, 0.0)), 0.0, h, 2)
    for v, m in zip(values, derivs):
        hist.append(v, m)
    ic = SampledIC(start=0.0, step=h, values=values, derivs=derivs)
    seg = PeriodSegment(omega=h * (values.shape[0] - 1), h=h, values=values, derivs=derivs)
    for t in np.linspace(0.0, seg.omega, 97)[1:-1]:
        t = float(t)
        assert np.array_equal(lookup(hist, t), ic.eval(t))
        assert np.array_equal(seg.eval(t), ic.eval(t))
        for j in range(2):
            assert lookup_scalar(hist, t, j) == ic.eval_component(t, j) == seg.eval_component(t, j)
            assert derivative(hist, t)[j] == ic.derivative_component(t, j)


def test_segment_reads_a_time_array_as_each_time(nodes):
    h, values, derivs = nodes
    seg = PeriodSegment(omega=h * (values.shape[0] - 1), h=h, values=values, derivs=derivs)
    t = np.linspace(-0.3, 2.5 * seg.omega, 180)  # before 0 and past omega, wrapped
    batch = seg.eval(t)
    assert batch.shape == (180, 2)
    assert np.array_equal(batch, np.array([seg.eval(float(x)) for x in t]))
    assert np.array_equal(seg.eval(t.reshape(12, 15)), batch.reshape(12, 15, 2))


@pytest.mark.parametrize("t", [-1.0, np.nextafter(-1.0, -2.0), -3.5, -1e300])
def test_sampled_history_is_its_first_node_at_and_before_start(nodes, t):
    h, values, derivs = nodes
    ic = SampledIC(start=-1.0, step=h, values=values, derivs=derivs)
    assert np.array_equal(ic.eval(t), values[0])
    for j in range(2):
        assert ic.eval_component(t, j) == values[0, j]
        assert ic.derivative_component(t, j) == 0.0
