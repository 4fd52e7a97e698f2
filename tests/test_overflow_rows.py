"""Rate factors e^{alpha tau} past the float range in the grid and sup conditions."""

import math

import numpy as np

from periodyn.certify import (_ConditionGrid, _kernel_gain, check_sup_criterion,
                              find_decay_rate, search_sup_criterion)
from periodyn.expressions import const, expr_sum, term_expr
from periodyn.kernels import Atom, DelayKernel

from helpers import scalar_model


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
    rep = search_sup_criterion(model, alpha=800.0, grid_points=64)
    assert not rep.satisfied and rep.worst_row_residual == math.inf
    assert rep.witness == {"theta": [1.0], "alpha": 800.0}
    assert rep == check_sup_criterion(model, (1.0,), alpha=800.0, grid_points=64)
