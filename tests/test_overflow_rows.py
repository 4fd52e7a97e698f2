"""Rate factors e^{alpha tau} past the float range in the grid and sup conditions."""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from periodyn.certify import (_ConditionGrid, _kernel_gain, _part_mass, _split_sup_rows,
                              _split_sup_search, _sup_report, discrete_delay_form,
                              find_decay_rate, find_weights)
from periodyn.cli import main
from periodyn.config import parse_config
from periodyn.expressions import const, expr_sum, term_expr
from periodyn.kernels import Atom, DelayKernel
from periodyn.model import Activation

from helpers import mmatrix_weights, scalar_model


def lag_one_overflow_model():
    # weight 0.05 - 0.05 cos(4 pi t) is exactly 0 at t = 0 and t = 1/2
    weight = expr_sum(const(0.05), term_expr("cos", -0.05, 4))
    return scalar_model(800.0, kernel=DelayKernel((Atom(0.0, weight),)), tau=const(1.0))


def test_decay_rate_past_the_float_range_is_warning_free():
    # the bisection cap max(d) + 1 = 801 puts e^{alpha tau} past the float range
    assert find_decay_rate(lag_one_overflow_model(), (1.0,), 256) == 8.975912841036916


def test_gain_past_the_float_range_is_inf_where_the_kernel_gain_is_nonzero():
    cg = _ConditionGrid(lag_one_overflow_model(), 256)
    gain, finite = cg.gain_matrix(801.0)
    mom = _kernel_gain(cg.sm, 801.0)[0]
    assert finite
    assert np.array_equal(gain, np.where(mom != 0.0, math.inf, 0.0))
    assert gain[0, 0, 0] == 0.0 and gain[128, 0, 0] == 0.0


def test_gain_inside_the_float_range_keeps_the_product():
    cg = _ConditionGrid(lag_one_overflow_model(), 256)
    gain, _ = cg.gain_matrix(700.0)
    assert np.array_equal(gain, np.exp(700.0 * cg.sm.tau) * _kernel_gain(cg.sm, 700.0)[0])


def test_sup_search_on_an_overflowing_lag_reports_unsatisfied():
    model = lag_one_overflow_model()
    form = discrete_delay_form(model, 64)
    rep = _sup_report(model, form, 800.0)
    assert not rep.satisfied and rep.worst_row_residual == math.inf
    assert rep.witness == {"theta": [1.0], "alpha": 800.0}
    assert rep == _sup_report(model, form, 800.0, np.ones(1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_delayed_gain_stays_zero_past_the_float_range():
    # e^{750 tau} overflows, but f = 0 gives the delayed term no weight at all
    zero = Activation.zero()
    model = scalar_model(800.0, kernel=DelayKernel((Atom(0.0, const(0.1)),)), tau=const(1.0),
                         g=zero, f=zero)
    cert = find_weights(model, 64, alpha=750.0)
    assert cert.xi.tolist() == [1.0] and cert.eta == 50.0
    rho, xi = mmatrix_weights(model, 64, 750.0)
    assert rho == 0.0 and xi.tolist() == [1.0]
    form = discrete_delay_form(model, 64)
    rep = _sup_report(model, form, 750.0)
    assert rep.satisfied and rep.worst_row_residual == -50.0
    assert rep == _sup_report(model, form, 750.0, np.ones(1))
    assert 750.0 < find_decay_rate(model, (1.0,), 64) < 800.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_delayed_gain_stays_zero_in_the_split_sup_rows():
    # the split rows take the same weight side first: b_sup F = 0 gives a zero lag, not inf
    zero = Activation.zero()
    model = scalar_model(800.0, kernel=DelayKernel((Atom(0.0, const(0.1)),)), tau=const(1.0),
                         g=zero, f=zero)
    half = np.full((1, 1, 1), 0.5)
    form = discrete_delay_form(model, 64)
    assert _split_sup_rows(model, form, 750.0, np.ones((1, 1)), half, half).max() == -50.0
    rep = _split_sup_search(model, form, 750.0, 200, 0, find_weights(model, 64))
    assert rep.satisfied and rep.worst_row_residual == -50.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_lag_certifies_alike_as_tau_and_as_an_atom():
    # the lag 1 as an atom puts e^{750} into the mass, as tau into the factor;
    # either way f = 0 gives the delayed term no weight
    zero = Activation.zero()
    as_tau = scalar_model(800.0, kernel=DelayKernel((Atom(0.0, const(0.1)),)), tau=const(1.0),
                          g=zero, f=zero)
    as_atom = scalar_model(800.0, kernel=DelayKernel((Atom(1.0, const(0.1)),)), g=zero, f=zero)
    certs = [find_weights(model, 64, alpha=750.0) for model in (as_tau, as_atom)]
    assert [(c.xi.tolist(), c.eta) for c in certs] == [([1.0], 50.0)] * 2
    radii = [mmatrix_weights(model, 64, 750.0) for model in (as_tau, as_atom)]
    assert [(rho, xi.tolist()) for rho, xi in radii] == [(0.0, [1.0])] * 2


# --- density moments past the float range: inf mass, as for atoms ------------

DENSITIES = {"uniform": {"shape": "uniform", "width": 1.0},
             "table": {"shape": "table", "s": [0.0, 1.0], "values": [1.0, 1.0]}}


def density_overflow_config(shape: str) -> dict:
    # the rate cap max(d) + 1 = 801 puts the density's e^{alpha s} past the float range
    return {"meta": {"n": 1, "omega": 1.0}, "d": [800.0], "a": [[0.0]],
            "kernels": [[{"density": dict(DENSITIES[shape], weight=0.1)}]],
            "tau": [[0.0]], "inputs": [0.0], "activations": {"g": ["tanh"], "f": ["tanh"]}}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shape", sorted(DENSITIES))
def test_density_moment_past_the_float_range_certifies(shape, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(density_overflow_config(shape)))
    assert main(["certify", str(path), "--grid", "64"]) == 0
    alpha = json.loads(capsys.readouterr().out)["results"]["certificate"]["alpha"]
    # the row -800 + alpha + 0.1 (e^alpha - 1) / alpha crosses 0 once
    root = brentq(lambda a: -800.0 + a + 0.1 * math.expm1(a) / a, 1.0, 20.0, xtol=1e-13)
    assert 0.0 <= root - alpha <= 1e-6


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shape", sorted(DENSITIES))
def test_weight_searches_past_the_float_range_find_no_weights(shape):
    model = parse_config(json.dumps(density_overflow_config(shape)))
    part = model.kernels[0][0].density
    assert _part_mass(part, 800.0) == (math.inf, True)
    assert find_weights(model, 64, alpha=800.0) is None
    assert mmatrix_weights(model, 64, 800.0) == (math.inf, None)
