"""One right-hand side and one Hermite dense output, seen from every caller."""

import numpy as np
import pytest

from periodyn.integrate import HistoryBuffer, rhs, simulate
from periodyn.model import ConstantIC, SampledIC, eval_coefficients
from periodyn.periodic import PeriodSegment


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
        assert np.array_equal(hist.lookup(t), ic.eval(t))
        assert np.array_equal(seg.eval(t), ic.eval(t))
        for j in range(2):
            assert hist.lookup_scalar(t, j) == ic.eval_component(t, j) == seg.eval_component(t, j)
            assert hist.derivative(t)[j] == ic.derivative_component(t, j)
