"""The compiled term table against one-expression-at-a-time evaluation, bit for bit."""

import importlib.util
import json
import pickle
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periodyn import expressions
from periodyn.config import load_model, model_to_config, parse_config, serialize_config
from periodyn.expressions import TERM_KINDS, PeriodicExpr, Term, TermTable, const, expr_sum, term_expr
from periodyn.kernels import Atom, DelayKernel, DistributedPart, ExponentialDensity
from periodyn.model import (Activation, NetworkModel, SampledModel, builtin_example,
                            coefficient_table, validate)

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)

Z = const(0.0)


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


# --- the table against PeriodicExpr.eval ------------------------------------------

terms = st.builds(Term, kind=st.sampled_from(TERM_KINDS),
                  c=st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0),
                  k=st.integers(1, 8))
exprs = st.lists(terms, max_size=5).map(lambda ts: PeriodicExpr(tuple(ts)))
times = st.floats(-50.0, 50.0) | st.lists(st.floats(-50.0, 50.0), max_size=12).map(np.array)


@settings(max_examples=300, deadline=None)
@given(st.lists(exprs, min_size=1, max_size=6), st.lists(exprs, max_size=3), times)
def test_table_matches_eval_bit_for_bit(first, second, t):
    table = TermTable({"first": first, "second": second})
    values = table.eval(t)
    for name, group in (("first", first), ("second", second)):
        assert values[name].shape == np.shape(t) + (len(group),)
        assert values[name].flags.c_contiguous
        for col, expr in enumerate(group):
            assert same_bits(values[name][..., col], np.asarray(expr.eval(t), dtype=float))


@pytest.mark.parametrize("block", [1, 3, 64, expressions._BLOCK_VALUES])
@settings(max_examples=100, deadline=None)
@given(st.lists(exprs, min_size=1, max_size=6), st.lists(exprs, max_size=3),
       st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40).map(np.array))
def test_bounds_are_the_least_and_greatest_of_eval_bit_for_bit(block, first, second, t):
    table = TermTable({"first": first, "second": second})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expressions, "_BLOCK_VALUES", block)
        bounds = table.bounds(t, ("first", "second"))
    for name, group in (("first", first), ("second", second)):
        least, greatest = bounds[name]
        assert same_bits(least, np.array([expr.eval(t).min() for expr in group], dtype=float))
        assert same_bits(greatest, np.array([expr.eval(t).max() for expr in group], dtype=float))


def test_bounds_of_an_empty_grid_are_refused():
    with pytest.raises(ValueError):
        TermTable({"g": (const(1.0),)}).bounds(np.array([]), ("g",))


@given(exprs, times)
def test_scalar_and_array_eval_agree(expr, t):
    arr = expr.eval(np.atleast_1d(np.asarray(t, dtype=float)))
    for k, s in enumerate(np.atleast_1d(t)):
        assert same_bits(np.asarray(expr.eval(float(s)), dtype=float), arr[k])


def test_empty_groups_evaluate_to_empty_arrays():
    table = TermTable({"none": (), "zero": (Z, Z)})
    assert table.eval(np.arange(3.0), ("none",))["none"].shape == (3, 0)
    assert not table.eval(0.5)["zero"].any()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.builds(Term, kind=st.sampled_from(TERM_KINDS), c=st.just(1.0),
                                   k=st.integers(1, 12)), max_size=4).map(PeriodicExpr),
                min_size=1, max_size=6),
       st.data())
def test_table_divides_period_matches_each_expression(group, data):
    # omega at, near (within 1e-9) and off (past 1e-9) a multiple of a term period or
    # of an expression's period; 0.9e-9 and 1.1e-9 keep clear of the rule's edge,
    # where float rounding of omega would decide
    periods = sorted({p for expr in group for p in (expr.period(), *map(Term.period, expr.terms))
                      if p is not None} or {Fraction(1)})
    multiple = data.draw(st.sampled_from(periods)) * data.draw(st.integers(1, 50))
    rel = data.draw(st.just(0.0) | st.floats(-0.9e-9, 0.9e-9)
                    | st.floats(1.1e-9, 1e-6) | st.floats(-1e-6, -1.1e-9))
    omega = float(multiple) * (1.0 + rel)
    table = TermTable({"g": group})
    for rel_tol in (1e-9, 0.0):
        assert (table.divides_period(omega, rel_tol)["g"].tolist()
                == [expr.divides_period(omega, rel_tol) for expr in group])


def test_divides_period_per_expression():
    group = (term_expr("sin", 1.0, 1), term_expr("sin2", 2.0, 1), Z, const(3.0),
             expr_sum(term_expr("cos", 1.0, 2), term_expr("sin2", 1.0, 2)),
             term_expr("cos", 1.0, 3))
    for omega in (1.0, 2.0, 2.0 / 3.0, 2.0 * (1.0 + 5e-10)):
        got = TermTable({"g": group}).divides_period(omega)["g"]
        assert got.tolist() == [e.divides_period(omega) for e in group]


# --- SampledModel: every array equals a per-expression stack ------------------------

def reference_arrays(model, t) -> dict:
    t = np.array(t, dtype=float)

    def vector(row):
        return np.stack([expr.eval(t) for expr in row], axis=-1)

    parts = [part for row in model.kernels for kern in row
             for part in kern.atoms + (() if kern.density is None else (kern.density,))]
    weights = np.empty(t.shape + (len(parts),))
    for k, part in enumerate(parts):
        weights[..., k] = part.weight.eval(t)
    return {"d": vector(model.d), "inputs": vector(model.inputs),
            "a": np.stack([vector(row) for row in model.a], axis=-2),
            "tau": np.stack([vector(row) for row in model.tau], axis=-2),
            "kernel_weights": weights}


def distributed():
    return parse_config(json.dumps(inputs.DISTRIBUTED))


def wide(seed):
    return parse_config(json.dumps(inputs.wide_network(seed, 30)))


MODELS = {"builtin": builtin_example, "distributed": distributed,
          **{f"wide{s}": (lambda s=s: wide(s)) for s in range(4)}}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sampled_model_is_the_per_expression_stack(name):
    model = MODELS[name]()
    grid = 512 if name.startswith("wide") else 4096
    for t in (np.arange(grid) * (model.omega / grid), np.arange(400) * 0.005, 0.7371, [0.3],
              np.linspace(0.0, 3.0, 12).reshape(3, 4)):
        sm = SampledModel(model, t)
        for attr, want in reference_arrays(model, t).items():
            got = getattr(sm, attr)
            assert same_bits(got, want), (name, attr)
            assert got.flags.c_contiguous and not got.flags.writeable


# --- the model's hash is computed once -------------------------------------------

def test_model_hash_is_the_field_hash_and_survives_pickle():
    model = wide(1)
    fields = (model.n, model.omega, model.d, model.a, model.kernels, model.tau,
              model.inputs, model.g, model.f)
    assert hash(model) == hash(fields) == hash(model)
    twin = wide(1)
    assert twin == model and hash(twin) == hash(model) and twin is not model
    assert wide(2) != model
    copy = pickle.loads(pickle.dumps(model))
    assert copy == model and "_hash" not in vars(copy) and hash(copy) == hash(model)
    assert coefficient_table(twin) is coefficient_table(model)


# --- validate's violations, recorded before the table existed ---------------------

def two_unit(omega=2.0, d=None, a=None, tau=None, inputs_=None, kernels=None, g=None, f=None):
    return NetworkModel(
        n=2, omega=omega,
        d=d or (expr_sum(const(2.0), term_expr("sin2", 0.5, 1)), const(1.5)),
        a=a or ((term_expr("sin2", 0.3, 1), Z), (Z, term_expr("cos2", 0.2, 2))),
        kernels=kernels or ((DelayKernel((Atom(0.0, term_expr("sin2", 0.1, 2)),)), DelayKernel()),
                            (DelayKernel(), DelayKernel((Atom(0.5, const(0.1)),)))),
        tau=tau or ((term_expr("abs_sin", 0.5, 1), Z), (Z, const(0.25))),
        inputs=inputs_ or (term_expr("sin", 1.0, 1), Z),
        g=g or (Activation.tanh(), Activation.tanh()),
        f=f or (Activation.arctan(), Activation.arctan()))


PINNED = {
    "period": (
        lambda: two_unit(
            omega=1.5,
            d=(expr_sum(const(2.0), term_expr("sin2", 0.5, 2)),
               expr_sum(const(1.5), term_expr("cos", 0.2, 1))),
            a=((term_expr("sin2", 0.3, 2), term_expr("sin", 0.1, 3)),
               (Z, term_expr("cos2", 0.2, 4))),
            kernels=((DelayKernel((Atom(0.0, term_expr("sin2", 0.1, 2)),),
                                  DistributedPart(ExponentialDensity(2.0),
                                                  term_expr("abs_cos", 0.1, 1))),
                      DelayKernel()),
                     (DelayKernel(), DelayKernel((Atom(0.5, term_expr("sin", 0.1, 1)),)))),
            tau=((term_expr("abs_sin", 0.5, 2), Z), (Z, term_expr("cos2", 0.25, 3))),
            inputs_=(term_expr("sin", 1.0, 4), term_expr("cos", 1.0, 2))),
        {},
        ["kernels[0][0].density.weight: period 1 does not divide omega=1.5",
         "a[0][1]: period 2/3 does not divide omega=1.5",
         "d[1]: period 2 does not divide omega=1.5",
         "inputs[1]: period 1 does not divide omega=1.5",
         "tau[1][1]: period 1/3 does not divide omega=1.5",
         "kernels[1][1].atoms[0].weight: period 2 does not divide omega=1.5"]),
    # omega/2 is within divides_period's tolerance of 1, so only the samples catch it
    "numerically_non_periodic": (
        lambda: two_unit(omega=2.0 * (1.0 + 5e-10),
                         d=(expr_sum(const(2.0), term_expr("sin", 0.5, 1)), const(1.5)),
                         inputs_=(term_expr("sin", 1.0, 1), Z)),
        {},
        ["d[0]: not periodic with omega=2.000000001 at t=0",
         "inputs[0]: not periodic with omega=2.000000001 at t=0",
         "a[0][0]: not periodic with omega=2.000000001 at t=0.0078125",
         "tau[0][0]: not periodic with omega=2.000000001 at t=0",
         "kernels[0][0].atoms[0].weight: not periodic with omega=2.000000001 at t=0.0078125",
         "a[1][1]: not periodic with omega=2.000000001 at t=0.0078125"]),
    "d_not_positive": (
        lambda: two_unit(d=(expr_sum(const(0.2), term_expr("sin", 0.5, 1)),
                            expr_sum(const(-0.1), term_expr("cos2", 0.05, 2)))),
        {},
        ["d_1 not positive at t=1.5", "d_2 not positive at t=0.25"]),
    "negative_delay": (
        lambda: two_unit(tau=((expr_sum(const(-0.1), term_expr("sin2", 0.3, 1)), const(-0.5)),
                              (Z, expr_sum(const(0.2), term_expr("sin", 0.3, 1))))),
        {},
        ["negative delay tau[0][0] at t=0", "negative delay tau[0][1] at t=0",
         "negative delay tau[1][1] at t=1.5"]),
    "activation": (
        lambda: two_unit(g=(Activation("tanh", 0.5), Activation.tanh()),
                         f=(Activation.arctan(), Activation("identity", 0.9, 0.1))),
        {},
        ["g[0]: growth bound violated (excess 0.266)",
         "g[0]: Lipschitz bound violated (excess 0.519)",
         "f[1]: growth bound violated (excess 9.9)",
         "f[1]: Lipschitz bound violated (excess 0.5)"]),
    "grid_512": (
        lambda: two_unit(
            d=(expr_sum(const(0.3), term_expr("sin", 0.5, 1), term_expr("cos", 0.01, 7)),
               const(1.5)),
            tau=((expr_sum(const(0.1), term_expr("sin", -0.3, 3)), Z), (Z, const(0.25))),
            a=((term_expr("sin2", 0.3, 1), term_expr("sin", 0.1, 3)),
               (Z, term_expr("cos2", 0.2, 2))),
            g=(Activation.tanh(), Activation("arctan", 0.5))),
        {"grid_points": 512},
        ["d_1 not positive at t=1.53516", "negative delay tau[0][0] at t=1.5",
         "g[1]: growth bound violated (excess 0.285)",
         "g[1]: Lipschitz bound violated (excess 0.571)"]),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_validate_violations_are_pinned(case):
    make, kwargs, want = PINNED[case]
    assert validate(make(), **kwargs).violations == want


@pytest.mark.parametrize("amp, k", [(100.0, 20), (1.0, 1000), (1000.0, 50)])
def test_exact_multiple_of_every_period_loads(amp, k, tmp_path):
    # k pi (t + omega) rounds apart from k pi t by more than the sampled check's
    # 1e-12 (1 + |v|), but omega = 2 is an exact multiple of the period 2/k
    model = two_unit(inputs_=(term_expr("sin", amp, k), Z))
    path = tmp_path / "model.json"
    path.write_text(serialize_config(model_to_config(model)))
    assert validate(model).ok
    assert load_model(str(path)) == model


@pytest.mark.parametrize("block", [1, 3, 64])
@pytest.mark.parametrize("case", sorted(PINNED))
def test_grid_blocks_do_not_move_the_reported_times(case, block, monkeypatch):
    make, kwargs, want = PINNED[case]
    monkeypatch.setattr(expressions, "_BLOCK_VALUES", block)
    assert validate(make(), **kwargs).violations == want


def test_least_value_reported_at_its_first_time(monkeypatch):
    # d_1 = 0.5 - |sin(pi t)| is least at t = 0.5 and again at t = 1.5 on omega = 2
    d1 = expr_sum(const(0.5), term_expr("abs_sin", -1.0, 1))
    assert d1.eval(0.5) == d1.eval(1.5) == -0.5
    model = two_unit(d=(d1, const(1.5)))
    monkeypatch.setattr(expressions, "_BLOCK_VALUES", 1)  # one time per block
    assert validate(model, grid_points=8).violations == ["d_1 not positive at t=0.5"]


def test_an_empty_grid_is_refused(builtin):
    with pytest.raises(ValueError):
        validate(builtin, grid_points=0)
    with pytest.raises(ValueError):
        coefficient_table(builtin).bounds(np.array([]), ("tau",))
