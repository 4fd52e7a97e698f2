"""Delayed sums read a block of steps at a time against sums read step by step.

``simulate`` reads the delayed terms of every step whose reads lie in stored
nodes in one block (the method of steps).  These tests replay runs node by
node and require each block row to carry the bits of the same sample's own
``delayed(jh)``, both at the node the block is read from and at the sample's
own stage, and whole runs to equal a loop that reads every stage afresh.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from periodyn import integrate
from periodyn.config import builtin_config_path, parse_config
from periodyn.expressions import const
from periodyn.integrate import (DivergenceError, HistoryBuffer, _period_plan, _stage_function,
                                simulate)
from periodyn.kernels import Atom, DelayKernel
from periodyn.model import Activation, ConstantIC, builtin_example

from helpers import period_map, scalar_model, wave_history

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)

H = 0.01
MODELS = {
    "builtin": builtin_example,
    "distributed": lambda: parse_config(json.dumps(inputs.DISTRIBUTED)),
    "wide3-6": lambda: parse_config(json.dumps(inputs.wide_network(3, 6))),
}


def _plan(model, h):
    return _period_plan(model, h, 2 * round(model.omega / h))


def _history(model, which):
    n = model.n
    if which == "constant":  # one node: the Taylor step while the run has one node
        return ConstantIC(tuple(0.3 - 0.2 * j for j in range(n)))
    if which == "expr":  # sine waves sampled off the step grid: the resampled initial block
        return wave_history("sin", 0.5 + 0.1 * np.arange(n), 2, -3.0, 230)
    window = period_map(model, ConstantIC(tuple(0.1 * (j + 1) for j in range(n))), H)
    if which == "window":  # the initial block
        return window
    return simulate(model, window, 0.3, H).history.window(3)  # reads before its first node


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _per_step_run(model, ic, h, steps):
    """RK4 nodes of ``steps`` steps with every stage's delayed sum read alone and afresh."""
    plan = _plan(model, h)
    hist = HistoryBuffer(ic, 0.0, h, model.n, capacity=steps + 1, lag=plan.max_lag)
    stage, delayed = _stage_function(plan, hist)
    u = np.asarray(ic.eval(0.0), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = stage(0, u, delayed(0))
        hist.append(u, k1)
        for m in range(steps):
            jh = 2 * m
            k2 = stage(jh + 1, u + (0.5 * h) * k1, delayed(jh + 1))
            k3 = stage(jh + 1, u + (0.5 * h) * k2, delayed(jh + 1))
            k4 = stage(jh + 2, u + h * k3, delayed(jh + 2))
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(u).all():
                raise DivergenceError((m + 1) * h)
            hist.append(u, k4)
            k1 = stage(jh + 2, u, delayed(jh + 2))
            hist.set_last_derivative(k1)
    return hist.values[: steps + 1]


@pytest.mark.parametrize("history", ["constant", "window", "short-window", "expr"])
@pytest.mark.parametrize("which", sorted(MODELS))
def test_block_rows_carry_each_samples_own_bits(which, history):
    model = MODELS[which]()
    ic, steps = _history(model, history), 80
    traj = simulate(model, ic, steps * H, H)
    plan = _plan(model, H)
    hist = HistoryBuffer(ic, 0.0, H, model.n, capacity=4, lag=plan.max_lag)
    _, delayed = _stage_function(plan, hist)
    assert delayed(0).shape == (model.n,)
    pending, blocks = {}, []
    hist.append(traj.states[0], traj.history.derivs[0])
    for m in range(steps):
        size = plan.blocks[m % len(plan.blocks)]
        jh = np.arange(2 * m + 1, 2 * m + 2 * max(size, 1) + 1)
        rows = delayed(jh)
        assert rows.shape == (jh.size, model.n)
        for j, row in zip(jh.tolist(), rows):  # the same history, one sample at a time
            assert _same_bits(row, delayed(j))
            if size:
                pending.setdefault(j, row)
        blocks.append(size)
        for j in (2 * m + 1, 2 * m + 2):  # the step's own reads, before its node is appended
            if j in pending:
                assert _same_bits(pending.pop(j), delayed(j))
        hist.append(traj.states[m + 1], traj.history.derivs[m + 1])
    assert max(blocks) >= 4
    assert (min(blocks) == 0) == (which == "builtin")  # its delays reach 0


@pytest.mark.parametrize("which, h", [("wide3-6", 0.01), ("builtin", 0.002)])
def test_run_equals_per_step_reads(which, h):
    model = MODELS[which]()
    ic, steps = ConstantIC(tuple(0.5 - 0.3 * j for j in range(model.n))), 700
    expected = _per_step_run(model, ic, h, steps)
    assert np.array_equal(simulate(model, ic, steps * h, h).states, expected)


def test_steps_not_below_the_least_delay_read_one_step_at_a_time():
    h = 0.01
    model = scalar_model(1.0, tau=const(0.5 * h), f=Activation.arctan(),
                         kernel=DelayKernel((Atom(0.0, const(0.8)),)))
    ic = wave_history("cos", [0.4], 2, -0.05, 7)
    assert set(_plan(model, h).blocks) == {0}
    expected = _per_step_run(model, ic, h, 150)
    with pytest.warns(UserWarning, match="not below the smallest delay"):
        states = simulate(model, ic, 150 * h, h).states
    assert np.array_equal(states, expected)


def test_divergence_at_the_same_time_as_per_step_reads():
    with open(builtin_config_path(), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["d"] = [60.0] * len(doc["d"])  # RK4 at h = 0.1 is unstable
    model, h, ic = parse_config(json.dumps(doc)), 0.1, ConstantIC((0.0, 0.0, 0.0))
    with pytest.raises(DivergenceError) as per_step:
        _per_step_run(model, ic, h, 400)
    with pytest.raises(DivergenceError) as blocks:
        simulate(model, ic, 400 * h, h)
    assert blocks.value.t == per_step.value.t


def test_builtin_reads_at_most_40_blocks_per_period(builtin, monkeypatch):
    calls = []

    def counting(plan, hist):
        stage, delayed = _stage_function(plan, hist)
        return stage, lambda jh: calls.append(jh) or delayed(jh)

    monkeypatch.setattr(integrate, "_stage_function", counting)
    h, periods = 0.01, 3
    simulate(builtin, ConstantIC((0.5, -1.0, 2.0)), periods * builtin.omega, h)
    assert periods * 2 * 200 < sum(np.size(jh) for jh in calls)  # every sample is read
    assert len(calls) <= 1 + 40 * periods  # 408 a period when each half step read alone
