"""The source paper's claim, stated on the shipped and benchmark delays.

Every delay is a sum of terms ``c * fn(k pi t)`` with a closed-form
derivative.  A periodic delay's derivative integrates to 0 over the period,
so a nonconstant delay has tau' < 0 somewhere: the literature's hypothesis
0 <= tau' < 1 holds only for constant delays.  periodyn keeps the
time-varying delays, and each of these models still certifies.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from periodyn.certify import find_decay_rate, find_weights
from periodyn.config import parse_config
from periodyn.model import builtin_example

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)

MODELS = {"builtin": builtin_example,
          "distributed": lambda: parse_config(json.dumps(inputs.DISTRIBUTED))}
MODELS.update({f"wide{s}": lambda s=s: parse_config(json.dumps(inputs.wide_network(s, 30)))
               for s in range(4)})

# d/dt of fn(x) at x = k pi t, to be multiplied by c k pi
DERIVATIVES = {
    "const": lambda x: np.zeros_like(x),
    "sin": np.cos,
    "cos": lambda x: -np.sin(x),
    "sin2": lambda x: np.sin(2.0 * x),
    "cos2": lambda x: -np.sin(2.0 * x),
    "abs_sin": lambda x: np.sign(np.sin(x)) * np.cos(x),
    "abs_cos": lambda x: -np.sign(np.cos(x)) * np.sin(x),
}

SAMPLES = 1 << 14


def midpoints(omega):
    # cell edges fall on every kink m / k of abs_sin and abs_cos, so no cell straddles one
    return (np.arange(SAMPLES) + 0.5) * (omega / SAMPLES)


def derivative(expr, t):
    out = np.zeros_like(t)
    for term in expr.terms:
        out += term.c * term.k * np.pi * DERIVATIVES[term.kind](term.k * np.pi * t)
    return out


def delays(model):
    return [expr for row in model.tau for expr in row]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_closed_form_derivatives_match_central_differences(name):
    model = MODELS[name]()
    t, step = midpoints(model.omega), 1e-7
    for expr in delays(model):
        slope = (expr.eval(t + step) - expr.eval(t - step)) / (2.0 * step)
        np.testing.assert_allclose(derivative(expr, t), slope, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_only_constant_delays_meet_the_literature_hypothesis(name):
    model = MODELS[name]()
    t = midpoints(model.omega)
    nonconstant = 0
    for expr in delays(model):
        slope = derivative(expr, t)
        scale = np.abs(slope).max()
        if scale == 0.0:  # a constant delay: tau' = 0 meets 0 <= tau' < 1
            continue
        nonconstant += 1
        assert abs(slope.mean()) <= 1e-12 * scale  # tau(omega) - tau(0) = 0
        assert slope.min() < 0.0  # so 0 <= tau' fails somewhere
    assert nonconstant > 0


@pytest.mark.parametrize("name", sorted(MODELS))
def test_models_with_time_varying_delays_certify(name):
    model = MODELS[name]()
    cert = find_weights(model, 512)
    assert cert is not None and cert.eta > 0.0
    assert find_decay_rate(model, cert.xi, 512) > 0.0
