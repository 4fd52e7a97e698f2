"""The certificate's one kernel-gain rule against the per-kernel integrals."""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from periodyn import certify, cli
from periodyn.certify import (_kernel_gain, find_decay_rate, random_discrete_delay_model,
                              search_split_sup_criterion)
from periodyn.config import parse_config
from periodyn.expressions import const, term_expr
from periodyn.kernels import Atom, DelayKernel
from periodyn.model import Activation, builtin_example, sampled

from helpers import exp_moment_values, scalar_model, total_variation
from test_read_plan import DISTRIBUTED

MODELS = {"builtin": builtin_example, "distributed": lambda: parse_config(json.dumps(DISTRIBUTED))}


def _grid(model, count=64):
    return sampled(model, count, model.omega / count)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_gain_at_rate_zero_is_total_variation_bit_for_bit(name):
    model = MODELS[name]()
    sm = _grid(model)
    gain, finite = _kernel_gain(sm, 0.0)
    assert finite and gain.shape == sm.a.shape
    for k, t in enumerate(sm.t):
        for i in range(model.n):
            for j in range(model.n):
                assert gain[k, i, j] == total_variation(model.kernels[i][j], float(t))


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("alpha", [0.3, 1.7, 11.5])
def test_gain_matches_exp_moment_values(name, alpha):
    model = MODELS[name]()
    sm = _grid(model)
    gain, finite = _kernel_gain(sm, alpha)
    assert finite
    for i in range(model.n):
        for j in range(model.n):
            moment, ok = exp_moment_values(model.kernels[i][j], sm.t, alpha)
            assert ok
            np.testing.assert_allclose(gain[:, i, j], moment, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("alpha", [12.0, 30.0])
def test_gain_diverges_at_the_exponential_rate(alpha):
    # the distributed input's exponential density has lam = 12
    sm = _grid(parse_config(json.dumps(DISTRIBUTED)))
    gain, finite = _kernel_gain(sm, alpha)
    assert not finite and np.all(np.isinf(gain))


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_ensemble_instance_solves_one_weight_search(monkeypatch, seed):
    calls = []
    find_weights = certify.find_weights

    def counting(*args, **kwargs):
        calls.append(kwargs.get("grid_points"))
        return find_weights(*args, **kwargs)

    monkeypatch.setattr(certify, "find_weights", counting)
    monkeypatch.setattr(cli, "find_weights", counting)
    row = cli.ensemble_instance((seed, 256, 20))
    assert calls == [256]
    model = random_discrete_delay_model(np.random.default_rng(seed))
    split = search_split_sup_criterion(model, alpha=0.0, draws=20, seed=seed, grid_points=256)
    assert row["split_sup"] == split.satisfied


def test_overflowing_atom_gain_is_inf_where_the_weight_is_nonzero():
    # e^{800} is past the float range; the weight sin^2(2 pi t) is exactly 0 at t = 0
    model = scalar_model(1.0, kernel=DelayKernel((Atom(1.0, term_expr("sin2", 0.5, 2)),)))
    gain, finite = _kernel_gain(_grid(model), 800.0)
    assert finite
    assert gain[0, 0, 0] == 0.0 and np.all(np.isinf(gain[1:, 0, 0]))


def test_decay_rate_bisects_past_an_overflowing_cap():
    # the cap max(d) + 1 = 801 overflows e^{alpha s}; the rate is the root of
    # -800 + alpha + 0.1 e^alpha = 0
    model = scalar_model(800.0, kernel=DelayKernel((Atom(1.0, const(0.1)),)),
                         g=Activation.zero(), f=Activation.identity())
    root = brentq(lambda a: a + 0.1 * math.exp(a) - 800.0, 0.0, 20.0, xtol=1e-14)
    rate = find_decay_rate(model, [1.0], grid_points=64)
    assert root - 2e-6 <= rate <= root


def test_ensemble_instance_above_1024_seeds_the_split_search_at_1024(monkeypatch):
    calls = []
    find_weights = certify.find_weights

    def counting(*args, **kwargs):
        calls.append(kwargs.get("grid_points"))
        return find_weights(*args, **kwargs)

    monkeypatch.setattr(certify, "find_weights", counting)
    monkeypatch.setattr(cli, "find_weights", counting)
    row = cli.ensemble_instance((5, 1280, 20))
    assert calls == [1280, 1024]
    model = random_discrete_delay_model(np.random.default_rng(5))
    split = search_split_sup_criterion(model, alpha=0.0, draws=20, seed=5, grid_points=1280)
    assert row["split_sup"] == split.satisfied
