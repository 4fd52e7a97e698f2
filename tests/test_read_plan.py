"""The per-period read plan against delayed sums built from ``lookup_batch``.

Each case replays a short run node by node and, at every stage slot (the
midpoint, RK4's last stage before its node is appended, and the next first
stage after it), compares the planned delayed sum with the same sum read
through the history's own locate rule.
"""

import json

import numpy as np
import pytest

from periodyn.config import parse_config
from periodyn.expressions import const
from periodyn.integrate import (HistoryBuffer, _delayed_reads, _period_plan, _stage_function,
                                simulate)
from periodyn.kernels import Atom, DelayKernel
from periodyn.model import Activation, ConstantIC, sampled

from helpers import last_time, lookup_batch, period_map, scalar_model, wave_history


# the densities of the benchmark's distributed input, beside atoms at lag 0
DISTRIBUTED = {
    "meta": {"n": 3, "omega": 2.0},
    "d": [2.4, 2.1, 2.7],
    "a": [[0.4, -0.3, 0.1], [0.2, 0.3, 0.25], [-0.2, 0.3, 0.2]],
    "kernels": [
        [{"atoms": [{"s": 0.0, "weight": 0.3}]},
         {"density": {"shape": "exponential", "lam": 12.0,
                      "weight": [{"const": 0.3}, {"amp": 0.1, "fn": "cos2", "k": 1}]}},
         None],
        [None, {"atoms": [{"s": 0.0, "weight": 0.2}, {"s": 0.5, "weight": 0.2}]},
         {"density": {"shape": "uniform", "width": 1.0,
                      "weight": [{"amp": 0.4, "fn": "sin2", "k": 1}]}}],
        [{"atoms": [{"s": 0.25, "weight": -0.15}],
          "density": {"shape": "table", "s": [0.0, 0.25, 0.5], "values": [0.0, 4.0, 0.0],
                      "weight": 0.25}},
         None,
         {"atoms": [{"s": 0.0, "weight": -0.2}]}],
    ],
    "tau": [[[{"const": 0.2}, {"amp": 0.3, "fn": "abs_sin", "k": 2}], 0.1, 0.0],
            [0.0, [{"amp": 0.3, "fn": "abs_sin", "k": 4}], 0.15],
            [[{"const": 0.1}, {"amp": 0.1, "fn": "sin2", "k": 1}], 0.0, 0.4]],
    "inputs": [[{"amp": 1.0, "fn": "sin", "k": 1}], 0.3, [{"amp": 2.0, "fn": "sin", "k": 2}]],
    "activations": {"g": ["tanh", "tanh", "arctan"], "f": ["arctan", "tanh", "arctan"]},
}


def _plan(model, h):
    """The read plan of a whole period."""
    return _period_plan(model, h, 2 * round(model.omega / h))


def _reference(model, h, hist, jh):
    """The delayed sum of half step ``jh`` read time by time through ``lookup_batch``."""
    sm = sampled(model, 2 * round(model.omega / h), 0.5 * h)
    reads = _delayed_reads(sm, h)
    idx = jh % sm.t.shape[0]
    tau = sm.tau[idx].reshape(-1)[reads.pair]
    times = (0.5 * h * jh - tau) - reads.lag
    values = lookup_batch(hist, times, reads.src)
    acts = np.array([model.f[j](float(v)) for j, v in zip(reads.src, values)])
    terms = sm.kernel_weights[idx][reads.col] * reads.scale * acts
    return np.bincount(reads.dst, weights=terms, minlength=model.n), times


def _replay(model, ic, h, steps):
    """Planned and reference sums at every stage slot of a ``steps``-step run.

    Returns the largest difference, the number of reads past the newest node
    and the number of slots read while the run has one node.
    """
    traj = simulate(model, ic, steps * h, h)
    plan = _plan(model, h)
    hist = HistoryBuffer(ic, 0.0, h, model.n, capacity=4, lag=plan.max_lag)
    _, delayed = _stage_function(plan, hist)
    worst, past, taylor = 0.0, 0, 0

    def check(jh):
        nonlocal worst, past, taylor
        expected, times = _reference(model, h, hist, jh)
        worst = max(worst, float(np.abs(delayed(jh) - expected).max(initial=0.0)))
        past += int((times > last_time(hist) + 1e-12).sum()) if hist.count > 1 else 0
        taylor += hist.count == 1 and bool((times > 0.0).any())

    check(0)
    hist.append(traj.states[0], traj.history.derivs[0])
    for m in range(steps):
        hist.horizon = (m + 1) * h
        check(2 * m + 1)
        check(2 * m + 2)
        hist.append(traj.states[m + 1], traj.history.derivs[m + 1])
        check(2 * m + 2)
    return worst, past, taylor


def test_constant_history_crossing_the_period(builtin):
    worst, past, _ = _replay(builtin, ConstantIC((0.5, -1.0, 2.0)), 0.05, 50)
    assert worst <= 1e-13
    assert past > 0  # tau = |sin(2 pi t)| reaches 0: reads inside the current step


def test_period_map_window(builtin):
    h = 0.05
    window = period_map(builtin, ConstantIC((0.1, 0.2, 0.3)), h)
    assert window.values.shape[0] > 2  # the initial block holds the window's own nodes
    worst, _, _ = _replay(builtin, window, h, 45)
    assert worst <= 1e-13


def test_expression_history(builtin):
    ic = wave_history("sin", 0.5 + np.arange(3), 2, -3.0, 210)
    worst, _, _ = _replay(builtin, ic, 0.05, 30)
    assert worst <= 1e-13


@pytest.mark.parametrize("tau", [0.0, 0.3, 0.7])
def test_step_zero_taylor_reads(tau):
    # delays below one step read past the start while the run has one node
    h = 0.01
    model = scalar_model(1.0, tau=const(tau * h), f=Activation.arctan(),
                         kernel=DelayKernel((Atom(0.0, const(0.8)),)))
    ic = wave_history("cos", [0.4], 2, -0.05, 7)
    worst, past, taylor = _replay(model, ic, h, 12)
    assert worst <= 1e-13
    assert taylor == (2 if tau < 0.5 else 1) and past > 0  # the midpoint, then RK4's last stage


def test_distributed_densities():
    model = parse_config(json.dumps(DISTRIBUTED))
    worst, past, _ = _replay(model, ConstantIC((0.3, -0.2, 0.1)), 0.01, 40)
    assert worst <= 1e-13
    assert past > 0  # the lag-0 atom of unit 2, whose delay reaches 0


def test_pre_start_read_of_constant_history_is_exact():
    c = 0.1234567890123
    h = 0.01
    model = scalar_model(1.0, kernel=DelayKernel((Atom(0.3, const(1.0)),)))
    plan = _plan(model, h)
    hist = HistoryBuffer(ConstantIC((c,)), 0.0, h, 1, capacity=40, lag=plan.max_lag)
    _, delayed = _stage_function(plan, hist)
    assert delayed(0)[0] == c
    hist.append(np.array([c]), np.zeros(1))
    for m in range(25):  # reads stay before the start up to t = 0.3
        assert delayed(2 * m + 1)[0] == c and delayed(2 * m + 2)[0] == c
        hist.append(np.array([1.0 + m]), np.ones(1))
        assert delayed(2 * m + 2)[0] == c


@pytest.mark.parametrize("h", [0.01, 0.002])
def test_plan_grows_with_parts_not_simpson_nodes(h):
    model = parse_config(json.dumps(DISTRIBUTED))
    plan = _plan(model, h)
    samples = 2 * round(model.omega / h)
    parts = len(plan.sm.kernel_index.parts)
    assert plan.anchor.shape == (samples, parts)
    assert plan.steps.shape == plan.col.shape and plan.col.size > 10 * parts


def test_short_run_plans_only_its_samples():
    model = parse_config(json.dumps(DISTRIBUTED))
    h, ic = 0.01, ConstantIC((0.3, -0.2, 0.1))
    short = simulate(model, ic, 0.5, h)
    assert _period_plan(model, h, 101).anchor.shape[0] == 101
    full = simulate(model, ic, 3.0, h)  # past the period: the whole period's plan
    assert np.array_equal(short.states, full.states[:51])


def _recomputing_run(model, ic, h, steps):
    """The nodes of :func:`simulate`'s RK4 loop with every delayed sum read afresh."""
    plan = _plan(model, h)
    hist = HistoryBuffer(ic, 0.0, h, model.n, capacity=steps + 1, lag=plan.max_lag)
    stage, delayed = _stage_function(plan, hist)
    u = np.asarray(ic.eval(0.0), dtype=float)
    k1 = stage(0, u, delayed(0))
    hist.append(u, k1)
    for m in range(steps):
        jh = 2 * m
        k2 = stage(jh + 1, u + (0.5 * h) * k1, delayed(jh + 1))
        k3 = stage(jh + 1, u + (0.5 * h) * k2, delayed(jh + 1))
        k4 = stage(jh + 2, u + h * k3, delayed(jh + 2))
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        hist.append(u, k4)
        k1 = stage(jh + 2, u, delayed(jh + 2))
        hist.set_last_derivative(k1)
    return hist.values[: steps + 1]


@pytest.mark.parametrize("which", ["builtin", "distributed"])
def test_first_stage_reuse_is_bit_identical(builtin, which):
    # the builtin delays reach 0, so some first stages read the step just taken
    model = builtin if which == "builtin" else parse_config(json.dumps(DISTRIBUTED))
    ic, h, steps = ConstantIC((0.5, -1.0, 2.0)), 0.01, 250
    expected = _recomputing_run(model, ic, h, steps)
    assert np.array_equal(simulate(model, ic, steps * h, h).states, expected)
