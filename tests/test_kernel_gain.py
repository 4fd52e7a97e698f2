"""The certificate's one kernel-gain rule against the per-kernel integrals."""

import copy
import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from periodyn import certify, cli
from periodyn.certify import (_kernel_gain, _split_sup_search, discrete_delay_form,
                              find_decay_rate, random_discrete_delay_model)
from periodyn.config import parse_config
from periodyn.expressions import const, term_expr
from periodyn.kernels import Atom, DelayKernel, part_mass
from periodyn.model import Activation, KernelIndex, SampledModel, builtin_example, sampled

from helpers import exp_moment_values, scalar_model, total_variation
from test_fast_certificate import inputs, wide
from test_read_plan import DISTRIBUTED

MODELS = {"builtin": builtin_example, "distributed": lambda: parse_config(json.dumps(DISTRIBUTED))}
# the distributed input with its exponential density made uniform: every moment has a finite
# flag at every rate, and at rate 800 the moment (e^800 - 1) / 800 of the width-1 uniform is inf
UNIFORM = copy.deepcopy(DISTRIBUTED)
UNIFORM["kernels"][0][1]["density"] = {"shape": "uniform", "width": 0.5, "weight": 0.3}


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
    split = _split_sup_search(model, discrete_delay_form(model, 256), 0.0, 20, seed,
                              find_weights(model, grid_points=256))
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
    split = _split_sup_search(model, discrete_delay_form(model, 1280), 0.0, 20, 5,
                              find_weights(model, grid_points=1024))
    assert row["split_sup"] == split.satisfied


@pytest.mark.parametrize("doc, alpha", [(DISTRIBUTED, 0.0), (DISTRIBUTED, 1.7), (UNIFORM, 800.0)])
def test_gain_takes_one_mass_per_distinct_part_and_the_bits_of_the_per_part_sum(
        monkeypatch, doc, alpha):
    calls = []

    def counting(part, rate):
        calls.append(part)
        return part_mass(part, rate)

    monkeypatch.setattr(certify, "_part_mass", counting)
    _kernel_gain(_grid(wide(3)), alpha)  # 900 atoms, every one at lag 0
    assert len(calls) == 1
    calls.clear()
    model = parse_config(json.dumps(doc))
    sm = _grid(model)
    gain, finite = _kernel_gain(sm, alpha)
    assert finite and len(calls) == 6  # lags 0, 0.5 and 0.25 and three densities: 8 parts
    # pairs of 0, 1 and 2 parts ([0][2], [0][0], [1][1]; [2][0] an atom and a density)
    for i in range(model.n):
        for j in range(model.n):
            moment, ok = exp_moment_values(model.kernels[i][j], sm.t, alpha)
            assert ok and gain[:, i, j].tobytes() == moment.tobytes(), (i, j)
    if alpha == 800.0:  # that density's weight sin^2(pi t) is exactly 0 at t = 0
        assert gain[0, 1, 2] == 0.0 and np.isinf(gain[1:, 1, 2]).all()


def _no_parts():
    return scalar_model(2.0, a=0.5)


INDEX_MODELS = {"builtin": builtin_example, "distributed": MODELS["distributed"],
                "wide-6": lambda: parse_config(json.dumps(inputs.wide_network(0, 6))),
                "no parts": _no_parts}


@pytest.mark.parametrize("name", sorted(INDEX_MODELS))
def test_kernel_index_agrees_with_the_kernel_parts(name):
    model = INDEX_MODELS[name]()
    index = KernelIndex(model)
    sm = SampledModel(model, np.arange(8) * model.omega / 8)
    assert sm.kernel_index is index  # one per model
    assert [part for *_, part in index.parts] == [
        part for row in model.kernels for kern in row for part in kern.parts]
    slots = {}  # mass key -> slot
    for k, (i, j, part) in enumerate(index.parts):
        assert index.pair[k] == i * model.n + j
        assert model.kernels[i][j].parts[index.position[k]] == part
        key = part.s if isinstance(part, Atom) else part.shape
        rep = index.distinct[index.slot[k]]
        assert key == (rep.s if isinstance(rep, Atom) else rep.shape)
        assert slots.setdefault(key, index.slot[k]) == index.slot[k]
    assert sorted(slots.values()) == list(range(len(index.distinct)))
    # each part position's (parts, pairs), as slices or index arrays
    parts, pairs = np.arange(len(index.parts)), np.arange(model.n ** 2)
    assert len(index.by_position) == (index.position.max() + 1 if len(parts) else 0)
    for p, (cols, dest) in enumerate(index.by_position):
        np.testing.assert_array_equal(parts[cols], np.flatnonzero(index.position == p))
        np.testing.assert_array_equal(pairs[dest], index.pair[parts[cols]])
    if not len(parts):
        gain, finite = _kernel_gain(sm, 0.3)
        assert finite and gain.shape == (8, 1, 1) and not gain.any()
        assert find_decay_rate(model, [1.0], 64) == 1.5  # the cap, max d + 1: no delayed gain


@pytest.mark.parametrize("name, count, block", [("wide", 100, None), ("distributed", 64, 40)])
def test_blocked_gain_has_the_bits_of_the_per_part_sum_over_many_blocks(
        monkeypatch, name, count, block):
    # wide(3) at 100 samples: 900 parts, blocks of 72 rows and a last one of 28;
    # DISTRIBUTED's 8 parts in blocks of 5 rows, its pairs of 2 parts in every one
    model = wide(3) if name == "wide" else MODELS[name]()
    if block is not None:
        monkeypatch.setattr(certify, "_BLOCK_VALUES", block)
    step = max(1, certify._BLOCK_VALUES // len(KernelIndex(model).parts))
    assert step < count and count % step
    sm = _grid(model, count)
    gain, finite = _kernel_gain(sm, 0.9)
    assert finite
    for i in range(model.n):
        for j in range(model.n):
            moment, ok = exp_moment_values(model.kernels[i][j], sm.t, 0.9)
            assert ok and gain[:, i, j].tobytes() == moment.tobytes(), (i, j)
