import math

import numpy as np
import pytest

from periodyn.expressions import const, expr_sum, term_expr
from periodyn.kernels import (Atom, DelayKernel, DistributedPart, ExponentialDensity,
                              UniformDensity)
from periodyn.model import Activation, NetworkModel, validate
from periodyn.certify import (Certificate, ModelShapeError, check_period_scaled_criterion,
                              check_row_dominance, check_split_sup_criterion,
                              check_sup_criterion, compute_bounds, discrete_delay_form,
                              find_decay_rate, find_weights, pointwise_criterion_label,
                              pointwise_report, random_discrete_delay_model,
                              search_split_sup_criterion, search_sup_criterion)

from helpers import exp_moment_values, mmatrix_weights, row_residual, scalar_model

# frozen from an independent dense-grid evaluation of the benchmark rows
BUILTIN_ROW1_AT_0 = -0.9581808382428365
BUILTIN_ETA_ONES_4096 = 0.07199615906297285
BUILTIN_ROW1_WORST = -0.6421205588285575
BUILTIN_ALPHA_ONES = 0.06900065212743356  # bisection root on the 4096 grid
SCALAR_BENCH_ALPHA = 0.4428544010015685   # root of exp(a) + a = 2
BUILTIN_SUP_ONES = -2.51 + 3.0 + 2.5 * math.exp(-1.0)
BUILTIN_SPLIT_ONES_HALF = 0.69 + 0.8 * math.exp(-1.0)


def scalar_delay_benchmark():
    """d = 2, unit atom at lag 1, no instantaneous gain; rate root of e^a + a = 2."""
    return scalar_model(2.0, kernel=DelayKernel((Atom(1.0, const(1.0)),)),
                        g=Activation.zero(), f=Activation.identity())


class TestRowResidual:
    def test_builtin_row1_at_zero(self, builtin):
        val = row_residual(builtin, (1.0, 1.0, 1.0), 0.0, 0)
        assert val == pytest.approx(BUILTIN_ROW1_AT_0, abs=1e-12)

    def test_pure_inhibition(self):
        m = scalar_model(1.0)
        assert row_residual(m, (1.0,), 0.42, 0) == pytest.approx(-1.0)

    def test_homogeneous_of_degree_one(self, builtin, rng):
        for _ in range(20):
            xi = rng.uniform(0.2, 5.0, size=3)
            c = float(rng.uniform(0.1, 10.0))
            t = float(rng.uniform(0.0, 2.0))
            i = int(rng.integers(0, 3))
            assert row_residual(builtin, c * xi, t, i) == pytest.approx(
                c * row_residual(builtin, xi, t, i), rel=1e-12)


class TestRowDominance:
    def test_builtin_margin_with_unit_weights(self, builtin):
        eta, ok = check_row_dominance(builtin, np.ones(3), 4096)
        assert ok
        assert eta == pytest.approx(BUILTIN_ETA_ONES_4096, abs=1e-9)
        assert 0.05 <= eta <= 0.12

    def test_builtin_row1_worst(self, builtin):
        t = np.linspace(0.0, 2.0, 4096, endpoint=False)
        worst = max(row_residual(builtin, (1.0, 1.0, 1.0), float(tt), 0)
                    for tt in t[:: 16])
        assert worst == pytest.approx(BUILTIN_ROW1_WORST, abs=1e-6)

    def test_unstable_scalar(self):
        m = scalar_model(1.0, a=2.0, g=Activation.identity())
        eta, ok = check_row_dominance(m, (1.0,), 512)
        assert not ok and eta == pytest.approx(-1.0)

    def test_decoupled_margin_is_min_inhibition(self):
        d1 = expr_sum(const(1.5), term_expr("sin2", 0.25, 1))
        d2 = const(2.0)
        m = NetworkModel(n=2, omega=2.0, d=(d1, d2),
                         a=((const(0.0),) * 2,) * 2,
                         kernels=((DelayKernel(),) * 2,) * 2,
                         tau=((const(0.0),) * 2,) * 2,
                         inputs=(const(0.0),) * 2,
                         g=(Activation.tanh(),) * 2, f=(Activation.tanh(),) * 2)
        eta, ok = check_row_dominance(m, np.ones(2), 1024)
        assert ok and eta == pytest.approx(1.5, abs=1e-12)


class TestMMatrixRoute:
    def test_builtin_sup_route_fails(self, builtin):
        rho, xi = mmatrix_weights(builtin, 1024)
        assert rho >= 1.0 and xi is None

    def test_dominant_model_yields_witness(self):
        m = scalar_model(2.0, a=0.3, g=Activation.identity())
        rho, xi = mmatrix_weights(m, 512)
        assert rho == pytest.approx(0.15, abs=1e-9)
        assert xi is not None and xi[0] == 1.0


class TestFindWeights:
    def test_builtin_feasible_and_at_least_unit_margin(self, builtin, builtin_cert):
        eta_ones, _ = check_row_dominance(builtin, np.ones(3), 4096)
        assert builtin_cert.eta >= eta_ones - 1e-12
        assert builtin_cert.xi.min() == pytest.approx(1.0)
        # the stored margin is the re-verified grid margin for the stored weights
        eta_check, ok = check_row_dominance(builtin, builtin_cert.xi, 4096)
        assert ok and eta_check == pytest.approx(builtin_cert.eta, abs=1e-12)

    def test_scalar_feasible(self):
        m = scalar_model(1.0, a=0.5, g=Activation.identity())
        cert = find_weights(m, 512)
        assert cert is not None
        assert cert.eta == pytest.approx(0.5, abs=1e-9)
        assert cert.xi.shape == (1,) and cert.xi[0] == pytest.approx(1.0)

    def test_scalar_infeasible_by_homogeneity(self):
        m = scalar_model(1.0, a=1.5, g=Activation.identity())
        assert find_weights(m, 512) is None

    def test_rate_extended_at_zero_matches_default(self, builtin):
        c0 = find_weights(builtin, 1024)
        c1 = find_weights(builtin, 1024, alpha=0.0)
        assert np.allclose(c0.xi, c1.xi) and c0.eta == c1.eta

    def test_certificate_weights_positive(self):
        with pytest.raises(ValueError):
            Certificate(xi=np.array([1.0, 0.0]), eta=0.1)


class TestFindDecayRate:
    def test_scalar_benchmark_root(self):
        m = scalar_delay_benchmark()
        alpha = find_decay_rate(m, (1.0,), 512, tol=1e-6)
        assert alpha == pytest.approx(SCALAR_BENCH_ALPHA, abs=2e-6)

    def test_builtin_rate_with_unit_weights(self, builtin):
        alpha = find_decay_rate(builtin, np.ones(3), 4096, tol=1e-6)
        assert alpha == pytest.approx(BUILTIN_ALPHA_ONES, abs=2e-6)
        assert 0.0 < alpha <= 0.073

    def test_rate_residual_feasible_on_denser_grid(self, builtin):
        # independent residual assembly from kernel moments at 3x grid density
        alpha = find_decay_rate(builtin, np.ones(3), 1024, tol=1e-6)
        t = np.linspace(0.0, 2.0, 3 * 1024, endpoint=False)
        worst = -math.inf
        for i in range(3):
            rows = -(builtin.d[i].eval(t) - alpha)
            for j in range(3):
                rows = rows + np.abs(builtin.a[i][j].eval(t))
                mom, _ = exp_moment_values(builtin.kernels[i][j], t, alpha)
                rows = rows + np.exp(alpha * builtin.tau[i][j].eval(t)) * mom
            worst = max(worst, float(rows.max()))
        assert worst <= 1e-9

    def test_monotone_residual_bracket(self):
        m = scalar_delay_benchmark()
        alpha = find_decay_rate(m, (1.0,), 256, tol=1e-6)
        # residual is monotone: alpha feasible, alpha + 2 tol infeasible
        def residual(a):
            return -(2.0 - a) + math.exp(a)
        assert residual(alpha) <= 0.0
        assert residual(alpha + 2e-6) > 0.0

    def test_zero_when_base_condition_fails(self):
        m = scalar_model(1.0, a=1.5, g=Activation.identity())
        assert find_decay_rate(m, (1.0,), 256) == 0.0

    def test_cap_below_exponential_density_rate(self):
        kern = DelayKernel(density=DistributedPart(ExponentialDensity(0.2), const(0.01)))
        m = scalar_model(5.0, kernel=kern)
        alpha = find_decay_rate(m, (1.0,), 256)
        assert 0.0 < alpha < 0.2

    def test_uncoupled_rate_is_min_inhibition(self):
        m = scalar_model(expr_sum(const(1.25), term_expr("sin2", 0.5, 1)))
        alpha = find_decay_rate(m, (1.0,), 1024, tol=1e-8)
        assert alpha == pytest.approx(1.25, abs=1e-6)


class TestComputeBounds:
    def test_builtin_bounds(self, builtin, builtin_cert):
        J, M, N = compute_bounds(builtin, builtin_cert)
        assert J == pytest.approx(2.0, abs=1e-12)
        assert M == pytest.approx(1.01 * 2.0 / builtin_cert.eta, rel=1e-12)
        assert M > J / builtin_cert.eta
        assert N > 0.0

    def test_zero_input_bounds(self):
        m = scalar_model(1.0, a=0.25, g=Activation.tanh())
        cert = find_weights(m, 256)
        J, M, N = compute_bounds(m, cert, grid_points=256)
        assert J == 0.0 and M == 1.0


class TestSupCriterion:
    def test_builtin_unit_weights_residual(self, builtin):
        rep = check_sup_criterion(builtin, np.ones(3), 0.0)
        assert not rep.satisfied
        assert rep.worst_row_residual == pytest.approx(BUILTIN_SUP_ONES, abs=1e-9)

    def test_builtin_search_still_unsatisfied(self, builtin):
        rep = search_sup_criterion(builtin, 0.0)
        assert not rep.satisfied

    def test_decoupled_satisfied(self):
        m = scalar_model(1.0)
        rep = check_sup_criterion(m, (1.0,), 0.0)
        assert rep.satisfied and rep.worst_row_residual == pytest.approx(-1.0)

    def test_constant_coefficients_match_pointwise(self):
        m = scalar_model(2.0, a=0.5, kernel=DelayKernel((Atom(0.0, const(-0.3)),)),
                         tau=const(0.4), g=Activation.identity())
        rep = check_sup_criterion(m, (1.0,), 0.0)
        assert rep.worst_row_residual == pytest.approx(
            row_residual(m, (1.0,), 0.77, 0), abs=1e-12)

    def test_shape_error_on_density(self):
        m = scalar_model(1.0, kernel=DelayKernel(
            density=DistributedPart(UniformDensity(1.0), const(0.1))))
        with pytest.raises(ModelShapeError):
            check_sup_criterion(m, (1.0,), 0.0)

    def test_shape_error_on_multiple_atoms(self):
        m = scalar_model(1.0, kernel=DelayKernel(
            atoms=(Atom(0.0, const(0.1)), Atom(1.0, const(0.1)))))
        with pytest.raises(ModelShapeError):
            check_sup_criterion(m, (1.0,), 0.0)


class TestSplitSupCriterion:
    def test_builtin_symmetric_exponents(self, builtin):
        half = np.full((3, 3), 0.5)
        rep = check_split_sup_criterion(builtin, np.ones(3), 0.0, half, half)
        assert not rep.satisfied
        assert rep.worst_row_residual == pytest.approx(BUILTIN_SPLIT_ONES_HALF, abs=1e-9)

    def test_builtin_search_unsatisfied(self, builtin):
        rep = search_split_sup_criterion(builtin, alpha=0.0, draws=200, seed=7)
        assert not rep.satisfied
        assert rep.witness is not None

    def test_decoupled_with_rate(self):
        m = scalar_model(1.0)
        half = np.full((1, 1), 0.5)
        rep = check_split_sup_criterion(m, (1.0,), 0.5, half, half)
        assert rep.satisfied and rep.worst_row_residual == pytest.approx(-0.5)

    def test_single_unit_reduces_to_sup_criterion(self):
        m = scalar_model(2.0, a=0.4, kernel=DelayKernel((Atom(0.0, const(0.3)),)),
                         tau=const(0.6), g=Activation.identity())
        half = np.full((1, 1), 0.5)
        split = check_split_sup_criterion(m, (1.0,), 0.1, half, half)
        sup = check_sup_criterion(m, (1.0,), 0.1)
        assert split.worst_row_residual == pytest.approx(sup.worst_row_residual, abs=1e-12)

    def test_exponents_must_be_interior(self, builtin):
        bad = np.full((3, 3), 1.0)
        with pytest.raises(ValueError):
            check_split_sup_criterion(builtin, np.ones(3), 0.0, bad, bad)


class TestPeriodScaledCriterion:
    def test_formula_value(self):
        m = scalar_model(1.0, a=0.4, g=Activation.identity())
        rep = check_period_scaled_criterion(m)
        assert rep.satisfied
        assert rep.worst_row_residual == pytest.approx(-1.0 + 0.4 * 2.0, abs=1e-12)

    def test_decoupled(self):
        m = scalar_model(1.0)
        rep = check_period_scaled_criterion(m)
        assert rep.satisfied and rep.worst_row_residual == pytest.approx(-1.0)

    def test_builtin_unsatisfied(self, builtin):
        assert not check_period_scaled_criterion(builtin).satisfied


class TestLabels:
    def test_builtin_is_discrete(self, builtin):
        assert pointwise_criterion_label(builtin) == "pointwise-discrete"
        rep = pointwise_report(builtin, 1024)
        assert rep.satisfied and rep.criterion == "pointwise-discrete"

    def test_distributed_label(self):
        m = scalar_model(1.0, kernel=DelayKernel(
            density=DistributedPart(UniformDensity(1.0), const(0.1))))
        assert pointwise_criterion_label(m) == "pointwise-distributed"

    def test_mixed_label(self):
        m = scalar_model(1.0, kernel=DelayKernel(
            atoms=(Atom(0.0, const(0.1)),),
            density=DistributedPart(UniformDensity(1.0), const(0.1))))
        assert pointwise_criterion_label(m) == "pointwise"


class TestCorollarySpecializations:
    def test_atom_only_row_matches_discrete_formula(self, builtin, rng):
        # on atom-only kernels the measure variation is |b_ij(t)|, so the
        # pointwise row equals the discrete-delay specialization
        for _ in range(25):
            t = float(rng.uniform(0.0, 2.0))
            i = int(rng.integers(0, 3))
            manual = -builtin.d[i].eval(t)
            for j in range(3):
                manual += abs(builtin.a[i][j].eval(t))
                manual += abs(builtin.kernels[i][j].atoms[0].weight.eval(t))
            assert row_residual(builtin, (1.0, 1.0, 1.0), t, i) == pytest.approx(
                manual, abs=1e-12)

    def test_density_row_matches_distributed_formula(self, rng):
        kern = DelayKernel(density=DistributedPart(ExponentialDensity(1.5),
                                                   term_expr("cos2", 0.4, 1)))
        m = scalar_model(2.0, kernel=kern, omega=2.0)
        for _ in range(10):
            t = float(rng.uniform(0.0, 2.0))
            manual = -2.0 + abs(0.4 * math.cos(math.pi * t) ** 2) * 1.0
            assert row_residual(m, (1.0,), t, 0) == pytest.approx(manual, abs=1e-12)


class TestInclusionProperties:
    def test_generator_is_deterministic(self):
        m1 = random_discrete_delay_model(np.random.default_rng(99))
        m2 = random_discrete_delay_model(np.random.default_rng(99))
        assert m1 == m2

    def test_generator_instances_are_admissible(self):
        for seed in range(10):
            m = random_discrete_delay_model(np.random.default_rng(seed))
            assert validate(m, grid_points=512).ok

    def test_split_sup_implies_weight_search_succeeds(self):
        checked = 0
        for seed in range(60):
            m = random_discrete_delay_model(np.random.default_rng(300 + seed))
            split = search_split_sup_criterion(m, alpha=0.0, draws=60, seed=seed,
                                               grid_points=512)
            if not split.satisfied:
                continue
            checked += 1
            assert find_weights(m, 512) is not None, f"seed {seed}"
            assert search_sup_criterion(m, 0.0, 512).satisfied, f"seed {seed}"
        assert checked >= 5

    def test_split_sup_at_rate_implies_rate_certificate(self):
        alpha = 0.05
        checked = 0
        for seed in range(40):
            m = random_discrete_delay_model(np.random.default_rng(700 + seed))
            split = search_split_sup_criterion(m, alpha=alpha, draws=40, seed=seed,
                                               grid_points=512)
            if not split.satisfied:
                continue
            checked += 1
            cert = find_weights(m, 512, alpha=alpha)
            assert cert is not None, f"seed {seed}"
            assert find_decay_rate(m, cert.xi, 512) >= alpha - 2e-6, f"seed {seed}"
        assert checked >= 5


class TestWeightedNorm:
    def test_discrete_form_extracts_sups(self, builtin):
        form = discrete_delay_form(builtin, 4096)
        assert form.d_inf[0] == pytest.approx(2.51, abs=1e-9)
        assert form.a_sup[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert form.b_sup[0, 2] == pytest.approx(0.5 * math.exp(-1.0), abs=1e-9)
        assert form.tau_sup[0, 1] == pytest.approx(math.pi / 2, abs=1e-5)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_decay_rate_rejects_non_positive_tolerance(builtin, tol):
    with pytest.raises(ValueError, match="tolerance"):
        find_decay_rate(builtin, np.ones(3), grid_points=256, tol=tol)


def test_decay_rate_bisection_ends_below_resolution(builtin):
    # a bracket narrower than one ulp cannot shrink below tol; the midpoint check ends it
    alpha = find_decay_rate(builtin, np.ones(3), grid_points=256, tol=1e-300)
    assert alpha == pytest.approx(find_decay_rate(builtin, np.ones(3), grid_points=256),
                                  abs=1e-6)

