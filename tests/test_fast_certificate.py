"""The cutting-plane weight LP and the pruned decay-rate bisection against the dense rules."""

import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from periodyn import certify
from periodyn.certify import (XI_BOX_MAX, _ConditionGrid, _max_margin_weights,
                              check_row_dominance, discrete_delay_form, find_decay_rate,
                              find_weights, random_discrete_delay_model, search_sup_criterion)
from periodyn.config import parse_config
from periodyn.kernels import ExponentialDensity
from periodyn.model import builtin_example, sampled

from test_overflow_rows import lag_one_overflow_model

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)


def distributed():
    return parse_config(json.dumps(inputs.DISTRIBUTED))


def wide(seed, n=30):
    return parse_config(json.dumps(inputs.wide_network(seed, n)))


def random_model(seed):
    return random_discrete_delay_model(np.random.default_rng(seed))


def grid_rows(model, grid):
    cg = _ConditionGrid(model, grid)
    return cg.condition_rows(cg.gain_matrix(0.0)[0], 0.0)


def one_shot_lp(rows):
    """The max-margin LP over every row at once: (weights, margin)."""
    m, n = rows.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.hstack([rows, np.ones((m, 1))]), b_ub=np.zeros(m),
                  bounds=[(1.0, XI_BOX_MAX)] * n + [(None, None)], method="highs")
    assert res.status == 0
    return np.asarray(res.x[:n]), float(res.x[-1])


def full_bisection(model, xi, grid, tol=1e-6):
    """Decay-rate bisection that rebuilds every grid row at every rate."""
    cg = _ConditionGrid(model, grid)
    xi = np.asarray(xi, dtype=float)

    def worst(alpha):
        return float(cg.residual_rows(xi, alpha).max())

    if worst(0.0) > 0.0:
        return 0.0
    cap = float(cg.sm.d.max()) + 1.0
    for _, _, part in cg.sm.kernel_parts:
        if isinstance(getattr(part, "shape", None), ExponentialDensity):
            cap = min(cap, part.shape.lam * (1.0 - 1e-9))
    if worst(cap) <= 0.0:
        return cap
    lo, hi = 0.0, cap
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if worst(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def recorded_lp_shapes(monkeypatch):
    shapes = []
    solve = certify.linprog

    def recording(c, A_ub=None, *args, **kwargs):
        shapes.append(A_ub.shape)
        return solve(c, A_ub, *args, **kwargs)

    monkeypatch.setattr(certify, "linprog", recording)
    return shapes


# --- weights must be n positive, finite numbers ---------------------------------

BAD_WEIGHTS = {"zero": [0.0, 0.0, 0.0], "nan": [1.0, math.nan, 1.0], "short": [1.0, 1.0],
               "negative": [1.0, -1.0, 1.0], "inf": [1.0, math.inf, 1.0], "matrix": [[1.0] * 3]}


@pytest.mark.parametrize("check", [
    lambda m, xi: find_decay_rate(m, xi, 256), lambda m, xi: check_row_dominance(m, xi, 256)],
    ids=["find_decay_rate", "check_row_dominance"])
@pytest.mark.parametrize("name", sorted(BAD_WEIGHTS))
def test_invalid_weights_are_rejected(builtin, check, name):
    with pytest.raises(ValueError, match="weights must be 3 positive, finite numbers"):
        check(builtin, BAD_WEIGHTS[name])


# --- the cutting plane reaches the one-shot optimum -------------------------------

LP_CASES = ([("builtin", builtin_example, 4096), ("distributed", distributed, 4096)]
            + [(f"wide{s}", lambda s=s: wide(s), 512) for s in range(4)]
            + [("wide0@4096", lambda: wide(0), 4096)])


def assert_cutting_plane_matches_one_shot(rows):
    xi_ref, margin_ref = one_shot_lp(rows.reshape(-1, rows.shape[-1]))
    xi = _max_margin_weights(rows)
    margin = -float((rows @ xi).max())
    assert margin == pytest.approx(margin_ref, rel=1e-9, abs=1e-12)
    np.testing.assert_allclose(xi / xi.min(), xi_ref / xi_ref.min(), rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("name,build,grid", LP_CASES, ids=[c[0] for c in LP_CASES])
def test_cutting_plane_reaches_the_one_shot_optimum(name, build, grid):
    assert_cutting_plane_matches_one_shot(grid_rows(build(), grid))


def test_cutting_plane_reaches_the_one_shot_optimum_on_random_models():
    for seed in range(50):
        assert_cutting_plane_matches_one_shot(grid_rows(random_model(seed), 1024))


@pytest.mark.parametrize("seed", [None, 0, 4, 9, 17])
def test_sup_lp_is_one_round_and_bit_identical(monkeypatch, seed):
    model = builtin_example() if seed is None else random_model(seed)
    form = discrete_delay_form(model, 512)
    S = (form.a_sup * certify._lipschitz(model.g)
         + form.b_sup * certify._lipschitz(model.f) * form.lag(0.0) + np.diag(-form.d_inf))
    n = model.n
    theta_ref = certify.linprog(np.append(np.zeros(n), -1.0), A_ub=np.hstack([S, np.ones((n, 1))]),
                                b_ub=np.zeros(n), bounds=[(1.0, XI_BOX_MAX)] * n + [(None, None)]).x[:n]
    shapes = recorded_lp_shapes(monkeypatch)
    theta = _max_margin_weights(S[None])
    assert shapes == [(n, n + 1)]
    assert np.array_equal(theta, theta_ref)
    theta_highs = one_shot_lp(S)[0]
    assert -(S @ theta).max() == pytest.approx(-(S @ theta_highs).max(), rel=1e-12)
    report = search_sup_criterion(model, 0.0, 512)
    assert report.witness["theta"] == [float(v) for v in theta_ref / theta_ref.min()]


def test_weight_search_lp_stays_small(monkeypatch):
    # a dense LP would hand HiGHS all 4096 * 30 = 122,880 grid rows in one call
    model = wide(0)
    shapes = recorded_lp_shapes(monkeypatch)
    assert find_weights(model, 4096) is not None
    assert 1 <= len(shapes) <= 12
    assert max(rows for rows, _ in shapes) <= 0.01 * 4096 * 30


# --- the pruned bisection equals the full bisection ---------------------------------

def hidden_binding_row():
    """Two units: the sample worst at rate 0 is not the one that binds.

    Unit 0 has a margin of 0.1 and no delayed gain, so every sample's rows are
    at least -0.1 at rate 0 and the first sample is the worst.  Unit 1 has a
    margin of 10 and a 10-unit atom of weight 9 |sin(pi t)|, which is 0 at
    t = 0 and binds near alpha = 0.0104: the walk down on the first sample
    stops at 0.086, far above that rate.
    """
    return parse_config(json.dumps({
        "meta": {"n": 2, "omega": 2.0}, "d": [1.0, 10.0], "a": [[0.9, 0.0], [0.0, 0.0]],
        "kernels": [[None, None], [None, {"atoms": [
            {"s": 10.0, "weight": [{"amp": 9.0, "fn": "abs_sin", "k": 1}]}]}]],
        "tau": [[0.0, 0.0], [0.0, 0.0]], "inputs": [0.0, 0.0],
        "activations": {"g": ["tanh", "tanh"], "f": ["identity", "identity"]}}))


BISECTION_CASES = ([("builtin", builtin_example, 4096), ("distributed", distributed, 1024)]
                   + [(f"wide{s}", lambda s=s: wide(s), 512) for s in range(4)]
                   + [("hidden-binding-row", hidden_binding_row, 1024)])


@pytest.mark.parametrize("name,build,grid", BISECTION_CASES, ids=[c[0] for c in BISECTION_CASES])
def test_pruned_bisection_equals_full_bisection(name, build, grid):
    model = build()
    for xi in (np.ones(model.n), find_weights(model, grid).xi):
        assert find_decay_rate(model, xi, grid) == full_bisection(model, xi, grid)


def test_pruned_bisection_equals_full_bisection_past_the_float_range():
    model = lag_one_overflow_model()
    assert find_decay_rate(model, (1.0,), 256) == full_bisection(model, (1.0,), 256)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tol=st.floats(1e-8, 1e-3),
       unit=st.booleans())
def test_pruned_bisection_matches_full_bisection_within_tol(seed, tol, unit):
    model = random_model(seed)
    cert = None if unit else find_weights(model, 128)
    xi = np.ones(model.n) if cert is None else cert.xi
    alpha = find_decay_rate(model, xi, 128, tol=tol)
    assert abs(alpha - full_bisection(model, xi, 128, tol=tol)) <= tol


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tol=st.floats(1e-8, 1e-3),
       unit=st.booleans())
def test_pruned_bisection_equals_full_bisection_on_random_models(seed, tol, unit):
    model = random_model(seed)
    cert = None if unit else find_weights(model, 128)
    xi = np.ones(model.n) if cert is None else cert.xi
    assert find_decay_rate(model, xi, 128, tol=tol) == full_bisection(model, xi, 128, tol=tol)


def recorded_evaluations(monkeypatch):
    """(rate, rows) of each bisection evaluation: each makes one (rows, K) delayed term."""
    evaluations = []
    term = certify._delayed_term

    def recording(coef, mass, lag, alpha, out=(None, None)):
        evaluations.append((alpha, len(coef)))
        return term(coef, mass, lag, alpha, out=out)

    monkeypatch.setattr(certify, "_delayed_term", recording)
    return evaluations


@pytest.mark.parametrize("build", [builtin_example, distributed], ids=["builtin", "distributed"])
def test_walk_down_from_the_cap_evaluates_one_sample_per_rate(monkeypatch, build):
    model, grid = build(), 4096
    xi = find_weights(model, grid).xi
    evaluations = recorded_evaluations(monkeypatch)
    alpha = find_decay_rate(model, xi, grid)
    cap = evaluations[1][0]
    walk = [cap * 0.5 ** k for k in range(64) if cap * 0.5 ** k > alpha]  # the cap, halved
    assert evaluations[:1 + len(walk)] == [(0.0, grid)] + [(rate, 1) for rate in walk]
    assert sum(rows for _, rows in evaluations) <= 3 * grid


# --- the bisection holds the (T, K) layout, not flat index tables -------------

@pytest.mark.parametrize("grid", [512, 4096])
def test_decay_rate_memory_stays_within_a_few_time_by_part_arrays(grid):
    model = wide(0)
    sm = sampled(model, grid, model.omega / grid)  # the sampled grid is not the rate's memory
    tracemalloc.start()
    try:
        find_decay_rate(model, np.ones(model.n), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * sm.kernel_weights.size * 8
