import math

import numpy as np
import pytest

from periodyn.expressions import const, term_expr
from periodyn.kernels import Atom, DelayKernel, DistributedPart, UniformDensity
from periodyn.model import Activation, ConstantIC, SampledIC
from periodyn.certify import compute_bounds, find_weights, random_discrete_delay_model
from periodyn.integrate import DivergenceError, HistoryBuffer, HistoryUnderrunError, simulate

from helpers import (convergence_order, derivative, lookup, lookup_scalar, rhs, scalar_model,
                     weighted_norms)


def linear_forced():
    """u' = -u + sin(2 pi t); closed-form periodic attractor."""
    return scalar_model(1.0, inputs=term_expr("sin", 1.0, 2))


def delay_benchmark():
    """u' = -u - 0.5 u(t - 1)."""
    return scalar_model(1.0, kernel=DelayKernel((Atom(1.0, const(-0.5)),)))


def matched_linear_history():
    # history 1 - 3 t matches the first derivative of the solution at 0
    ts = np.linspace(-1.0, 0.0, 65)
    vals = (1.0 - 3.0 * ts)[:, None]
    return SampledIC(start=-1.0, step=ts[1] - ts[0], values=vals,
                     derivs=np.full_like(vals, -3.0))


class TestHistoryBuffer:
    def _filled(self, n_nodes=5, h=0.1):
        hist = HistoryBuffer(ConstantIC((1.0,)), 0.0, h, 1, capacity=2)
        for k in range(n_nodes):
            # u(t) = t^2 with exact derivatives: cubic Hermite reproduces it
            t = k * h
            hist.append(np.array([t * t]), np.array([2.0 * t]))
        return hist

    def test_delegates_to_initial_condition(self):
        hist = self._filled()
        assert lookup_scalar(hist, -3.0, 0) == 1.0
        assert lookup_scalar(hist, 0.0, 0) == 1.0

    def test_interpolates_quadratic_exactly(self):
        hist = self._filled()
        for t in (0.05, 0.17, 0.31, 0.399):
            assert lookup_scalar(hist, t, 0) == pytest.approx(t * t, abs=1e-15)

    def test_never_extrapolates_past_horizon(self):
        hist = self._filled()
        with pytest.raises(HistoryUnderrunError):
            lookup_scalar(hist, 0.55, 0)

    def test_extrapolates_within_horizon(self):
        hist = self._filled()
        hist.horizon = 0.5
        assert lookup_scalar(hist, 0.45, 0) == pytest.approx(0.45 ** 2, abs=1e-12)

    def test_vector_lookup_matches_scalar(self):
        hist = self._filled()
        assert lookup(hist, 0.23)[0] == lookup_scalar(hist, 0.23, 0)

    def test_derivative(self):
        hist = self._filled()
        assert derivative(hist, 0.25)[0] == pytest.approx(0.5, abs=1e-12)

    def test_growth_beyond_capacity(self):
        hist = self._filled(n_nodes=40)
        assert hist.count == 40


class TestRhs:
    def test_pure_decay(self):
        m = scalar_model(1.0)
        hist = HistoryBuffer(ConstantIC((2.0,)), 0.0, 0.1, 1)
        assert rhs(m, 0.0, np.array([2.0]), hist)[0] == pytest.approx(-2.0)

    def test_identity_atom_feedback(self):
        m = scalar_model(const(0.0), kernel=DelayKernel((Atom(0.0, const(1.0)),)))
        c = 1.7
        hist = HistoryBuffer(ConstantIC((c,)), 0.0, 0.1, 1)
        assert rhs(m, 0.0, np.array([c]), hist)[0] == pytest.approx(c)

    def test_builtin_at_zero_history(self, builtin):
        hist = HistoryBuffer(ConstantIC((0.0, 0.0, 0.0)), 0.0, 0.001, 3)
        du = rhs(builtin, 0.0, np.zeros(3), hist)
        assert du == pytest.approx([0.0, 2.0, 0.0], abs=1e-14)


class TestSimulate:
    def test_linear_ode_against_closed_form(self):
        m = scalar_model(1.0, inputs=const(1.0))
        traj = simulate(m, ConstantIC((0.0,)), 1.0, 1e-3)
        assert traj.states[-1, 0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-8)

    def test_constant_delay_against_method_of_steps(self):
        traj = simulate(delay_benchmark(), ConstantIC((1.0,)), 1.0, 1e-3)
        exact = 1.5 * np.exp(-traj.times) - 0.5
        assert np.abs(traj.states[:, 0] - exact).max() <= 1e-8
        assert traj.states[-1, 0] == pytest.approx(0.0518191617571635, abs=1e-8)

    def test_zero_equilibrium_is_exact(self):
        m = scalar_model(1.0, a=0.5, kernel=DelayKernel((Atom(0.3, const(0.2)),)))
        traj = simulate(m, ConstantIC((0.0,)), 2.0, 0.01)
        assert np.all(traj.states == 0.0)

    def test_deterministic_bitwise(self, builtin):
        ic = ConstantIC((0.1, -0.2, 0.3))
        a = simulate(builtin, ic, 1.0, 0.002)
        b = simulate(builtin, ic, 1.0, 0.002)
        assert np.array_equal(a.states, b.states)

    def test_superposition_for_linear_dynamics(self):
        m = scalar_model(1.0, a=0.3, kernel=DelayKernel((Atom(0.5, const(-0.4)),)),
                         g=Activation.identity())
        u1 = simulate(m, ConstantIC((1.0,)), 3.0, 0.01).states
        u2 = simulate(m, ConstantIC((-0.5,)), 3.0, 0.01).states
        u12 = simulate(m, ConstantIC((0.5,)), 3.0, 0.01).states
        assert np.abs(u12 - (u1 + u2)).max() <= 1e-10

    def test_step_must_divide_period(self):
        with pytest.raises(ValueError):
            simulate(linear_forced(), ConstantIC((0.0,)), 1.0, 0.3)

    def test_t_end_must_be_multiple_of_step(self):
        with pytest.raises(ValueError):
            simulate(linear_forced(), ConstantIC((0.0,)), 1.05, 0.1)

    def test_t_end_zero_single_node(self):
        traj = simulate(linear_forced(), ConstantIC((0.7,)), 0.0, 0.1)
        assert traj.times.shape == (1,) and traj.states[0, 0] == 0.7

    def test_divergence_reports_time(self):
        m = scalar_model(1.0, a=100.0, g=Activation.identity())
        with pytest.raises(DivergenceError) as exc:
            simulate(m, ConstantIC((1.0,)), 10.0, 0.01)
        assert 0.0 < exc.value.t <= 10.0

    def test_future_lookup_raises_underrun(self):
        m = scalar_model(1.0, kernel=DelayKernel((Atom(0.0, const(0.5)),)),
                         tau=const(-0.5))
        with pytest.raises(HistoryUnderrunError):
            simulate(m, ConstantIC((1.0,)), 1.0, 0.01)

    def test_warns_when_step_exceeds_smallest_delay(self):
        m = scalar_model(1.0, kernel=DelayKernel((Atom(1.0, const(-0.1)),)),
                         omega=4.0)
        with pytest.warns(UserWarning, match="smallest delay"):
            simulate(m, ConstantIC((1.0,)), 4.0, 2.0)

    def test_no_warning_when_delays_touch_zero(self, builtin):
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            simulate(builtin, ConstantIC((0.0, 0.0, 0.0)), 0.1, 0.002)

    def test_expression_history(self):
        # history sin(2 pi t): at t the delayed value is sin(2 pi (t - 1)) = sin(2 pi t)
        from periodyn.model import ExprIC
        m = scalar_model(1.0, kernel=DelayKernel((Atom(1.0, const(-0.5)),)))
        ic = ExprIC((term_expr("sin", 1.0, 2),))
        traj = simulate(m, ic, 1.0, 1e-3)
        # closed form on [0, 1]: u' = -u - 0.5 sin(2 pi t), u(0) = 0
        w = 2.0 * math.pi
        c = 0.5 / (1.0 + w * w)
        exact = c * (w * np.cos(w * traj.times) - np.sin(w * traj.times)
                     - w * np.exp(-traj.times))
        assert np.abs(traj.states[:, 0] - exact).max() <= 1e-8

    def test_sub_step_delay_uses_extrapolant(self):
        # delay shorter than the step still integrates to the right attractor
        m = scalar_model(1.0, kernel=DelayKernel((Atom(0.0, const(-0.5)),)),
                         tau=term_expr("abs_sin", 0.004, 1))
        traj = simulate(m, ConstantIC((1.0,)), 2.0, 0.01)
        near = simulate(scalar_model(1.0, kernel=DelayKernel((Atom(0.0, const(-0.5)),))),
                        ConstantIC((1.0,)), 2.0, 0.01)
        assert np.abs(traj.states - near.states).max() <= 5e-3


class TestConvergenceOrder:
    def test_smooth_no_delay_is_fourth_order(self):
        p = convergence_order(linear_forced(), ConstantIC((0.0,)), 4.0, k0=32)
        assert abs(p - 4.0) <= 0.3

    def test_constant_delay_away_from_breaking_points(self):
        p = convergence_order(delay_benchmark(), matched_linear_history(), 4.0,
                              k0=32, window=(2.0, 4.0))
        assert p >= 3.7

    def test_uniform_density_kernel(self):
        kern = DelayKernel(density=DistributedPart(UniformDensity(1.0), const(-0.3)))
        m = scalar_model(1.0, inputs=term_expr("sin", 1.0, 2), kernel=kern)
        p = convergence_order(m, ConstantIC((0.5,)), 3.0, k0=32, window=(1.5, 3.0))
        assert p >= 2.0


class TestCsvExport:
    def test_schema_and_precision(self, tmp_path):
        traj = simulate(linear_forced(), ConstantIC((0.0,)), 0.5, 0.1)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,u_1"
        assert len(lines) == 1 + 6
        # 17 significant digits round-trip exactly
        for line, (t, u) in zip(lines[1:], zip(traj.times, traj.states[:, 0])):
            st, su = line.split(",")
            assert float(st) == t and float(su) == u

    def test_byte_identical_reruns(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        simulate(linear_forced(), ConstantIC((0.3,)), 1.0, 0.01).write_csv(p1)
        simulate(linear_forced(), ConstantIC((0.3,)), 1.0, 0.01).write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCertifiedBounds:
    def test_bound_invariance_on_random_certified_instances(self):
        count = 0
        seed = 0
        while count < 10:
            seed += 1
            m = random_discrete_delay_model(np.random.default_rng(4200 + seed))
            cert = find_weights(m, 512)
            if cert is None:
                continue
            count += 1
            _, M, _ = compute_bounds(m, cert, grid_points=512)
            draw = np.random.default_rng(5200 + seed)
            phi = cert.xi * M * draw.uniform(-1.0, 1.0, size=m.n)
            traj = simulate(m, ConstantIC(tuple(phi)), 4 * m.omega, m.omega / 64)
            assert weighted_norms(traj.states, cert.xi).max() <= M * (1.0 + 1e-6)

    def test_contraction_in_weighted_norm(self, builtin, builtin_cert, builtin_alpha):
        h = 0.002
        a = simulate(builtin, ConstantIC((0.0, 0.0, 0.0)), 8.0, h)
        b = simulate(builtin, ConstantIC((1.0, -1.0, 2.0)), 8.0, h)
        dist = weighted_norms(a.states - b.states, builtin_cert.xi)
        ratio = dist * np.exp(builtin_alpha * a.times) / dist[0]
        assert ratio.max() <= 1.0 + 1e-3


@pytest.mark.parametrize("t_end", [-0.1, math.nan, math.inf])
def test_t_end_must_be_finite_and_non_negative(t_end):
    with pytest.raises(ValueError, match="t_end"):
        simulate(linear_forced(), ConstantIC((0.0,)), t_end, 0.1)

