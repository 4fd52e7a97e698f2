import math

import numpy as np
import pytest

from periodyn.expressions import const, term_expr
from periodyn.integrate import _period_plan
from periodyn.kernels import TAIL_TOL, Atom, DelayKernel
from periodyn.model import Activation, ConstantIC
from periodyn.certify import find_decay_rate
from periodyn.periodic import (NoConvergenceError, estimate_decay_rate,
                               find_periodic_orbit, lookback_steps, period_map,
                               verify_periodicity)

from helpers import scalar_model

# first-run regression snapshot of the one-period advance of the benchmark
# from zero history at h = 0.002 (window of 787 nodes ending at 0)
GOLDEN_PM_FIRST = (0.2911889608879327, 0.4652812639283513, 0.5472601859480718)
GOLDEN_PM_LAST = (-0.13170565413420346, 0.2136097899415279, -0.21983926758896946)


def linear_forced():
    return scalar_model(1.0, inputs=term_expr("sin", 1.0, 2))


def forced_orbit_exact(t):
    return (np.sin(2 * np.pi * t) - 2 * np.pi * np.cos(2 * np.pi * t)) / (1 + 4 * np.pi ** 2)


def autonomous_equilibrium():
    # u' = -u + 0.5 u + 0.25 has the fixed point 0.5
    return scalar_model(1.0, a=0.5, inputs=const(0.25), g=Activation.identity())


class TestPeriodMap:
    def test_equilibrium_is_fixed_point(self):
        m = autonomous_equilibrium()
        out = period_map(m, ConstantIC((0.5,)), 0.01)
        assert np.abs(out.values - 0.5).max() <= 1e-9

    def test_zero_model_stays_zero(self):
        m = scalar_model(1.0)
        out = period_map(m, ConstantIC((0.0,)), 0.01)
        assert np.all(out.values == 0.0)

    def test_window_ends_at_zero_and_covers_lookback(self, builtin):
        out = period_map(builtin, ConstantIC((0.0, 0.0, 0.0)), 0.002)
        assert out.end == 0.0
        plan = _period_plan(builtin, 0.002, TAIL_TOL, 2 * round(builtin.omega / 0.002))
        assert -out.start >= plan.max_lag - 1e-9

    def test_builtin_regression_snapshot(self, builtin):
        out = period_map(builtin, ConstantIC((0.0, 0.0, 0.0)), 0.002)
        assert out.values.shape == (787, 3)
        assert out.values[0] == pytest.approx(GOLDEN_PM_FIRST, abs=1e-9)
        assert out.values[-1] == pytest.approx(GOLDEN_PM_LAST, abs=1e-9)

    def test_lookback_steps_builtin(self, builtin):
        assert lookback_steps(builtin, 0.002) == 786


class TestFindPeriodicOrbit:
    def test_forced_linear_matches_closed_form(self):
        seg, residual, iters = find_periodic_orbit(
            linear_forced(), ConstantIC((0.0,)), 1e-3, fp_tol=1e-10)
        assert residual <= 1e-10
        tt = np.arange(seg.values.shape[0]) * seg.h
        assert np.abs(seg.values[:, 0] - forced_orbit_exact(tt)).max() <= 1e-7
        assert seg.seam_gap <= 1e-9

    def test_equilibrium_orbit_is_constant(self):
        seg, residual, _ = find_periodic_orbit(
            autonomous_equilibrium(), ConstantIC((0.1,)), 0.01, fp_tol=1e-10)
        assert np.abs(seg.values - 0.5).max() <= 1e-8
        assert residual <= 1e-10

    def test_iterations_bounded_by_geometric_prediction(self, builtin, builtin_cert,
                                                        builtin_alpha):
        seg, residual, iters = find_periodic_orbit(
            builtin, ConstantIC((0.0, 0.0, 0.0)), 0.002, fp_tol=1e-10,
            xi=builtin_cert.xi)
        assert residual <= 1e-10
        # the certified rate lower-bounds the true contraction, so the
        # geometric count is an upper bound (up to a small constant)
        predicted = math.log(1e10) / (builtin_alpha * builtin.omega)
        assert iters <= 3 * predicted

    def test_no_convergence_raises_with_history(self):
        m = scalar_model(1.0, kernel=DelayKernel((Atom(1.0, const(-4.0)),)),
                         g=Activation.zero())
        with pytest.raises(NoConvergenceError) as exc:
            find_periodic_orbit(m, ConstantIC((1.0,)), 0.01, max_iters=100)
        assert len(exc.value.residual_history) >= 2

    def test_max_iters_exhaustion(self):
        with pytest.raises(NoConvergenceError):
            find_periodic_orbit(linear_forced(), ConstantIC((0.0,)), 0.01,
                                fp_tol=1e-16, max_iters=3)

    def test_basin_independence(self):
        m = linear_forced()
        seg1, _, _ = find_periodic_orbit(m, ConstantIC((0.0,)), 1e-3, fp_tol=1e-10)
        seg2, _, _ = find_periodic_orbit(m, ConstantIC((5.0,)), 1e-3, fp_tol=1e-10)
        assert np.abs(seg1.values - seg2.values).max() <= 10 * 1e-10


class TestPeriodSegment:
    def test_wraps_periodically(self):
        seg, _, _ = find_periodic_orbit(linear_forced(), ConstantIC((0.0,)), 0.01)
        for t in (0.37, 1.37, -0.63, 10.37):
            assert seg.eval(t)[0] == pytest.approx(seg.eval(0.37)[0], abs=1e-9)

    def test_eval_component_matches_eval(self):
        seg, _, _ = find_periodic_orbit(linear_forced(), ConstantIC((0.0,)), 0.01)
        assert seg.eval_component(0.23, 0) == seg.eval(0.23)[0]

    def test_csv_schema(self, tmp_path):
        seg, _, _ = find_periodic_orbit(linear_forced(), ConstantIC((0.0,)), 0.01)
        path = tmp_path / "orbit.csv"
        seg.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,u_1"
        assert len(lines) == 1 + seg.values.shape[0]

    def test_as_history_wraps_nodes(self):
        seg, _, _ = find_periodic_orbit(linear_forced(), ConstantIC((0.0,)), 0.01)
        ic = seg.as_history(25)
        assert ic.end == 0.0
        assert ic.eval_component(0.0, 0) == seg.values[0, 0]
        assert ic.eval_component(-0.25, 0) == pytest.approx(
            seg.eval_component(-0.25, 0), abs=1e-12)


class TestVerifyPeriodicity:
    def test_forced_linear(self):
        seg, _, _ = find_periodic_orbit(linear_forced(), ConstantIC((0.0,)), 1e-3)
        assert verify_periodicity(seg, linear_forced(), 1e-3) <= 1e-7

    def test_equilibrium(self):
        m = autonomous_equilibrium()
        seg, _, _ = find_periodic_orbit(m, ConstantIC((0.5,)), 0.01)
        assert verify_periodicity(seg, m, 0.01) <= 1e-10

    def test_deviation_shrinks_with_fp_tol(self):
        m = linear_forced()
        devs = []
        for fp_tol in (1e-6, 1e-8, 1e-10):
            seg, _, _ = find_periodic_orbit(m, ConstantIC((1.0,)), 0.01, fp_tol=fp_tol)
            devs.append(verify_periodicity(seg, m, 0.01))
        assert devs[0] >= devs[1] >= devs[2]

    def test_builtin_geometric_defect_bound(self, builtin, builtin_cert, builtin_alpha):
        fp_tol = 1e-10
        seg, _, _ = find_periodic_orbit(builtin, ConstantIC((0.0, 0.0, 0.0)), 0.002,
                                        fp_tol=fp_tol, xi=builtin_cert.xi)
        dev = verify_periodicity(seg, builtin, 0.002, xi=builtin_cert.xi)
        bound = 10 * fp_tol / (1.0 - math.exp(-builtin_alpha * builtin.omega))
        assert dev <= bound


class TestEstimateDecayRate:
    def test_pure_decay_rate_is_one(self):
        m = scalar_model(1.0)
        seg, _, _ = find_periodic_orbit(m, ConstantIC((0.0,)), 0.01)
        fit = estimate_decay_rate(m, seg, ConstantIC((1.0,)), 0.01, 12.0)
        assert fit.alpha_emp == pytest.approx(1.0, abs=0.01)
        assert fit.r_squared >= 0.999
        assert fit.window == (3.0, 12.0)

    def test_scalar_delay_benchmark_rate(self):
        m = scalar_model(2.0, kernel=DelayKernel((Atom(1.0, const(1.0)),)),
                         g=Activation.zero())
        alpha_cert = find_decay_rate(m, (1.0,), 256)
        seg, _, _ = find_periodic_orbit(m, ConstantIC((0.0,)), 0.01)
        fit = estimate_decay_rate(m, seg, ConstantIC((1.0,)), 0.01, 12.0)
        assert fit.alpha_emp >= alpha_cert - 0.02

    def test_degenerate_when_already_on_orbit(self):
        m = scalar_model(1.0)
        seg, _, _ = find_periodic_orbit(m, ConstantIC((0.0,)), 0.01)
        fit = estimate_decay_rate(m, seg, ConstantIC((0.0,)), 0.01, 4.0)
        assert fit.degenerate and fit.alpha_emp == math.inf

    def test_certified_rate_is_lower_bound(self, builtin, builtin_cert, builtin_alpha):
        h = 0.002
        seg, _, _ = find_periodic_orbit(builtin, ConstantIC((0.0, 0.0, 0.0)), h,
                                        fp_tol=1e-10, xi=builtin_cert.xi)
        fit = estimate_decay_rate(builtin, seg, ConstantIC((1.0, -1.0, 2.0)), h, 12.0,
                                  xi=builtin_cert.xi)
        fit_slack = 0.05 * builtin_alpha + 0.01
        assert fit.alpha_emp >= builtin_alpha - fit_slack
