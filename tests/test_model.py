import math

import numpy as np
import pytest

from periodyn.expressions import PeriodicExpr, Term, const, expr_sum, term_expr
from periodyn.kernels import Atom, DelayKernel
from periodyn.integrate import _initial_nodes
from periodyn.model import Activation, ConstantIC, NetworkModel, SampledIC, validate

from helpers import eval_coefficients, scalar_model, wave_history


class TestPeriodicExpr:
    def test_term_values(self):
        assert term_expr("sin2", 0.5, 1).eval(0.5) == pytest.approx(0.5, abs=1e-15)
        assert term_expr("cos", 2.0, 1).eval(0.0) == 2.0
        assert term_expr("abs_sin", 1.0, 2).eval(0.75) == pytest.approx(1.0, abs=1e-12)
        assert term_expr("abs_cos", math.pi / 2, 2).eval(0.0) == pytest.approx(math.pi / 2)

    def test_empty_sum_is_zero(self):
        assert PeriodicExpr(()).eval(3.7) == 0.0
        assert eval_coefficients(scalar_model(const(0.0)), 1.3).d[0] == 0.0

    def test_array_eval_matches_scalar(self):
        e = expr_sum(const(1.0), term_expr("sin", 0.3, 2), term_expr("cos2", -0.2, 4))
        ts = np.linspace(0.0, 2.0, 17)
        arr = e.eval(ts)
        for t, v in zip(ts, arr):
            assert e.eval(float(t)) == v

    def test_exact_periods(self):
        assert term_expr("sin2", 1.0, 4).period() == pytest.approx(0.25)
        assert term_expr("cos", 1.0, 1).period() == 2
        assert const(2.5).period() is None
        mixed = expr_sum(term_expr("sin2", 1.0, 2), term_expr("cos", 1.0, 1))
        assert float(mixed.period()) == 2.0

    def test_divides_period(self):
        assert term_expr("sin2", 1.0, 2).divides_period(2.0)
        assert not term_expr("cos", 1.0, 1).divides_period(1.0)

    def test_divides_period_past_the_float_range(self):
        # omega / period is 8e312, compared exactly: no float holds it
        assert term_expr("sin2", 1.0, 4 * 10 ** 300).divides_period(2e12)

    def test_invalid_terms(self):
        with pytest.raises(ValueError):
            Term("wavelet", 1.0, 1)
        with pytest.raises(ValueError):
            Term("sin", 1.0, 0)
        with pytest.raises(ValueError):
            Term("sin", math.nan, 1)

    def test_eval_is_pure(self):
        e = expr_sum(const(0.91), term_expr("sin2", 0.1, 1), term_expr("sin2", 0.5, 4))
        vals = {e.eval(0.3712) for _ in range(10)}
        assert len(vals) == 1

    def test_periodicity_of_builtin_coefficients(self, builtin, rng):
        ts = rng.uniform(0.0, 50.0, size=1000)
        exprs = list(builtin.d) + list(builtin.inputs)
        for row in builtin.a:
            exprs.extend(row)
        for row in builtin.tau:
            exprs.extend(row)
        for e in exprs:
            base = e.eval(ts)
            for k in (1, 2, 3):
                shifted = e.eval(ts + k * builtin.omega)
                assert np.abs(shifted - base).max() <= 1e-10


class TestActivation:
    def test_builtin_constants(self):
        assert (Activation.tanh().lipschitz, Activation.tanh().offset) == (1.0, 0.0)
        assert (Activation.arctan().lipschitz, Activation.arctan().offset) == (1.0, 0.0)
        assert (Activation.identity().lipschitz, Activation.identity().offset) == (1.0, 0.0)
        assert Activation.zero().lipschitz == 0.0

    @pytest.mark.parametrize("act", [
        Activation.tanh(), Activation.arctan(), Activation.identity(),
        Activation.zero(), Activation.saturating(0.7, 2.0),
    ])
    def test_growth_bound_sampled(self, act):
        s = np.linspace(-100.0, 100.0, 10_001)
        assert np.all(np.abs(act(s)) <= act.lipschitz * np.abs(s) + act.offset + 1e-12)

    @pytest.mark.parametrize("act", [
        Activation.tanh(), Activation.arctan(), Activation.identity(),
        Activation.saturating(1.3, 0.5),
    ])
    def test_lipschitz_bound_sampled(self, act, rng):
        x = rng.uniform(-50.0, 50.0, size=5000)
        h = rng.uniform(-5.0, 5.0, size=5000)
        assert np.all(np.abs(act(x + h) - act(x)) <= act.lipschitz * np.abs(h) + 1e-12)

    def test_saturating_clips(self):
        act = Activation.saturating(2.0, 1.5)
        assert act(10.0) == 1.5
        assert act(-10.0) == -1.5
        assert act(0.25) == 0.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Activation("relu", 1.0)


class TestInitialConditions:
    def test_constant_ic(self):
        ic = ConstantIC((1.0, -2.0))
        assert np.array_equal(ic.eval(-7.3), [1.0, -2.0])
        assert ic.eval(-1.0)[1] == -2.0
        values, derivs = _initial_nodes(ic, 0.0, 0.1, 1.0)  # one node, with zero slope
        assert np.array_equal(values, [[1.0, -2.0]]) and np.array_equal(derivs, [[0.0, 0.0]])

    def test_expr_ic(self):
        # sin(2 pi t) sampled with its exact slopes, read midway between two nodes
        ic = wave_history("sin", [1.0], 2, -1.0, 90)
        assert ic.eval(-0.25)[0] == pytest.approx(-1.0)

    def test_sampled_ic_reproduces_linear_data(self):
        ts = np.linspace(-1.0, 0.0, 11)
        vals = (2.0 - 3.0 * ts)[:, None]
        ders = np.full_like(vals, -3.0)
        ic = SampledIC(start=-1.0, step=0.1, values=vals, derivs=ders)
        for t in (-0.97, -0.5, -0.123, 0.0):
            assert ic.eval(t)[0] == pytest.approx(2.0 - 3.0 * t, abs=1e-12)
        # constant extension before the window
        assert ic.eval(-5.0)[0] == pytest.approx(5.0)

    def test_sampled_ic_shape_validation(self):
        with pytest.raises(ValueError):
            SampledIC(start=-1.0, step=0.1, values=np.zeros((3, 1)), derivs=np.zeros((2, 1)))


class TestNetworkModel:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(n=2, omega=1.0, d=(const(1.0),), a=((const(0.0),),),
                         kernels=((DelayKernel(),),), tau=((const(0.0),),),
                         inputs=(const(0.0),), g=(Activation.tanh(),),
                         f=(Activation.tanh(),))
        with pytest.raises(ValueError):
            scalar_model(1.0, omega=-2.0)

    def test_eval_coefficients_builtin(self, builtin):
        sl0 = eval_coefficients(builtin, 0.0)
        assert sl0.d[0] == pytest.approx(2.51, abs=1e-15)
        assert sl0.a[0, 1] == pytest.approx(1.0)
        assert sl0.inputs[1] == pytest.approx(2.0)
        sl5 = eval_coefficients(builtin, 0.5)
        assert sl5.d[0] == pytest.approx(3.01, abs=1e-12)

    def test_eval_coefficients_deterministic(self, builtin):
        a = eval_coefficients(builtin, 0.7371)
        b = eval_coefficients(builtin, 0.7371)
        assert np.array_equal(a.d, b.d) and np.array_equal(a.a, b.a)
        assert np.array_equal(a.tau, b.tau) and np.array_equal(a.inputs, b.inputs)


class TestValidate:
    def test_builtin_is_admissible(self, builtin):
        report = validate(builtin)
        assert report.ok, report.violations

    def test_nonpositive_self_inhibition(self):
        m = scalar_model(term_expr("sin", 1.0, 2), omega=1.0)
        report = validate(m)
        assert any("not positive" in v and "t=0.75" in v for v in report.violations)

    def test_negative_delay(self):
        m = scalar_model(1.0, kernel=DelayKernel((Atom(0.0, const(0.1)),)),
                         tau=const(-1.0))
        report = validate(m)
        assert any("negative delay" in v for v in report.violations)

    def test_period_mismatch(self):
        m = scalar_model(1.0, inputs=term_expr("cos", 1.0, 1), omega=1.0)
        report = validate(m)
        assert any("period" in v for v in report.violations)

    def test_activation_constant_violation(self):
        bad = Activation("identity", lipschitz=0.5)  # true slope is 1
        m = scalar_model(1.0, g=bad)
        report = validate(m)
        assert any("g[0]" in v for v in report.violations)


class TestBuiltinExample:
    def test_dimensions(self, builtin):
        assert builtin.n == 3
        assert builtin.omega == 2.0

    def test_activation_kinds(self, builtin):
        assert all(act.kind == "tanh" for act in builtin.g)
        assert all(act.kind == "arctan" for act in builtin.f)

    def test_kernel_atoms(self, builtin):
        for row in builtin.kernels:
            for kern in row:
                assert len(kern.atoms) == 1 and kern.density is None
                assert kern.atoms[0].s == 0.0
