"""The Anderson-accelerated orbit search against plain period-map iteration."""

import json

import numpy as np
import pytest

from periodyn import periodic
from periodyn.cli import builtin_config_path, main
from periodyn.expressions import const
from periodyn.integrate import simulate
from periodyn.kernels import Atom, DelayKernel
from periodyn.model import Activation, ConstantIC
from periodyn.periodic import NoConvergenceError, find_periodic_orbit, period_map

from helpers import scalar_model


def plain_iteration_orbit(model, h, xi, fp_tol=1e-10):
    """The orbit as plain iteration finds it: map until two windows agree, then one period."""
    x = ConstantIC(tuple(0.0 for _ in range(model.n)))
    prev, maps = None, 0
    while True:
        window = period_map(model, x, h)
        maps += 1
        if prev is not None and np.max(np.abs(window.values - prev.values) / xi) <= fp_tol:
            return simulate(model, x, model.omega, h).states, maps
        prev = x = window


@pytest.mark.parametrize("h", [1e-2, 2e-3])
def test_accelerated_orbit_matches_plain_iteration(builtin, builtin_cert, h):
    seg, residual, iters = find_periodic_orbit(builtin, ConstantIC((0.0, 0.0, 0.0)), h,
                                               fp_tol=1e-10, xi=builtin_cert.xi)
    plain, plain_maps = plain_iteration_orbit(builtin, h, builtin_cert.xi)
    assert residual <= 1e-10
    assert iters < plain_maps
    assert seg.values.shape == plain.shape
    assert np.abs(seg.values - plain).max() <= 1e-10
    assert iters == len(seg.residual_history) + 1
    assert seg.residual_history[-1] == residual


# max_iters 5 stops on the map count, 100 on the 20-map stagnation rule
@pytest.mark.parametrize("max_iters, residuals", [(5, 4), (100, 21)])
def test_restart_takes_the_plain_step(monkeypatch, max_iters, residuals):
    m = scalar_model(1.0, kernel=DelayKernel((Atom(1.0, const(-4.0)),)),
                     g=Activation.zero())
    maps = []  # (input, output window) of every period map
    advance = periodic._advance_one_period

    def recorded(model, ic, h, tail_tol):
        window, traj = advance(model, ic, h, tail_tol)
        maps.append((ic, window))
        return window, traj

    monkeypatch.setattr(periodic, "_advance_one_period", recorded)
    with pytest.raises(NoConvergenceError) as exc:
        find_periodic_orbit(m, ConstantIC((1.0,)), 0.01, max_iters=max_iters)
    history = exc.value.residual_history
    assert len(history) == residuals and history[-1] > min(history[:-1])
    # the last residual ends the search, so only the earlier ones can lead to a step
    restarted = [k for k in range(1, len(history) - 1) if history[k] > min(history[:k])]
    assert exc.value.restarts == len(restarted) >= 1
    for k in restarted:  # residual k comes from map k + 1; the next map starts from its window
        _, window = maps[k + 1]
        ic, _ = maps[k + 2]
        assert np.array_equal(ic.values, window.values)
        assert np.array_equal(ic.derivs, window.derivs)


def _find_period(capsys, *flags):
    code = main(["find-period", builtin_config_path(), "--h", "1e-2", "--fp-tol", "1e-10",
                 "--rate-periods", "0", *flags])
    return code, capsys.readouterr().out


def test_builtin_find_period_report(capsys):
    code, out = _find_period(capsys)
    assert code == 0
    res = json.loads(out)["results"]
    assert res["converged"] and res["residual"] <= 1e-10
    assert res["iterations"] <= 12
    assert res["iterations"] == len(res["residual_history"]) + 1
    assert res["residual_history"][-1] == res["residual"]
    assert res["restarts"] >= 0
    assert _find_period(capsys) == (code, out)


def test_no_convergence_report_keeps_restarts(capsys):
    code, out = _find_period(capsys, "--max-iters", "3")
    assert code == 3
    res = json.loads(out)["results"]
    assert res["converged"] is False
    assert len(res["residual_history"]) == 2 and res["restarts"] == 0
