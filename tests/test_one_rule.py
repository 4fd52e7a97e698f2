"""One rule per derived value: comparison radius, infeasible rows, window reach, report layout."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from periodyn.certify import (ModelShapeError, check_row_dominance, compare_criteria,
                              compute_bounds, find_decay_rate, find_weights)
from periodyn.cli import builtin_config_path, config_hash, load_model, main, run_ensemble
from periodyn.expressions import const, expr_sum, term_expr
from periodyn.integrate import _period_plan
from periodyn.kernels import Atom, DelayKernel
from periodyn.model import Activation, ConstantIC, NetworkModel
from periodyn.periodic import find_periodic_orbit, lookback_steps, verify_periodicity

from helpers import ZERO, mmatrix_weights, scalar_model
from test_overflow_rows import lag_one_overflow_model


def test_cyclic_comparison_matrix_radius_is_the_eigenvalue_modulus():
    # A = [[0, 100], [0.02, 0]] has eigenvalues +-sqrt(2): no dominance witness exists
    ident = Activation.identity()
    m = NetworkModel(n=2, omega=1.0, d=(const(1.0),) * 2,
                     a=((ZERO, const(100.0)), (const(0.02), ZERO)),
                     kernels=((DelayKernel(),) * 2,) * 2, tau=((ZERO,) * 2,) * 2,
                     inputs=(ZERO,) * 2, g=(ident,) * 2, f=(ident,) * 2)
    rho, xi = mmatrix_weights(m, 64)
    assert rho == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert xi is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_rows_are_infeasible_without_an_lp():
    m = lag_one_overflow_model()
    assert find_weights(m, 64, alpha=800.0) is None
    assert mmatrix_weights(m, 64, 800.0) == (math.inf, None)


def test_period_map_window_covers_the_read_plan_reach():
    # a delay whose sup over the plan's samples lands a sliver past a step boundary
    tau = expr_sum(const(0.300121896), term_expr("sin2", 0.25, 1), term_expr("sin", 0.1, 2))
    kernel = DelayKernel((Atom(0.0, const(0.5)),))
    m = scalar_model(3.0, kernel=kernel, tau=tau, omega=2.0,
                     g=Activation.tanh(), f=Activation.tanh())
    h = 2e-4
    reach = _period_plan(m, h, 20000).max_lag / h
    assert lookback_steps(m, h) >= reach - 1e-9


# --- report layout: every key, in order, from the library calls ---------------

def _certificate(cert) -> dict:
    return {"xi": cert.xi.tolist(), "eta": cert.eta, "alpha": cert.alpha, "J": cert.J,
            "M": cert.M, "N": cert.N, "grid_points": cert.grid_points}


def _criterion(report) -> dict:
    return {"criterion": report.criterion, "satisfied": report.satisfied,
            "worst_row_residual": report.worst_row_residual, "witness": report.witness}


def _report(command, path, parameters, results, outputs=()) -> dict:
    return {"command": command, "config": path, "config_hash": config_hash(load_model(path)),
            "parameters": parameters, "results": results, "outputs": list(outputs)}


def _stdout(argv, capsys, code=0) -> str:
    assert main(argv) == code
    return capsys.readouterr().out


def _dumped(expected) -> str:
    return json.dumps(expected, indent=2) + "\n"


def test_certify_report_layout(capsys):
    path = builtin_config_path()
    model = load_model(path)
    cert = find_weights(model, grid_points=256)
    J, M, N = compute_bounds(model, cert)
    cert = replace(cert, alpha=find_decay_rate(model, cert.xi, grid_points=256, tol=1e-4),
                   J=J, M=M, N=N)
    expected = _report("certify", path, {"grid": 256, "tol": 1e-4},
                       {"certified": True, "certificate": _certificate(cert)})
    assert _stdout(["certify", path, "--grid", "256", "--tol", "1e-4"], capsys) == _dumped(expected)


def test_infeasible_certify_report_layout(tmp_path, capsys):
    with open(builtin_config_path(), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["d"][0] = 0.05
    path = str(tmp_path / "weak.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    model = load_model(path)
    assert find_weights(model, grid_points=128) is None
    margin = check_row_dominance(model, np.ones(model.n), 128)[0]
    expected = _report("certify", path, {"grid": 128, "tol": 1e-6},
                       {"certified": False, "best_unit_weight_margin": margin})
    assert _stdout(["certify", path, "--grid", "128"], capsys, 2) == _dumped(expected)


def test_find_period_report_layout(tmp_path, capsys):
    path = builtin_config_path()
    model = load_model(path)
    h, out = 1e-2, str(tmp_path / "orbit.csv")
    cert = find_weights(model, grid_points=256)
    cert = replace(cert, alpha=find_decay_rate(model, cert.xi, grid_points=256))
    q = math.exp(-cert.alpha * model.omega)
    ic = ConstantIC((0.0,) * model.n)
    segment, residual, iterations = find_periodic_orbit(model, ic, h, fp_tol=1e-8,
                                                        max_iters=1000, xi=cert.xi,
                                                        alpha=cert.alpha)
    results = {
        "certificate": _certificate(cert),
        "converged": True,
        "residual": residual,
        "iterations": iterations,
        "residual_history": list(segment.residual_history),
        "restarts": segment.restarts,
        "periodicity_deviation": verify_periodicity(segment, model, h, xi=cert.xi),
        "seam_gap": segment.seam_gap,
        "contraction": {"observed": max(segment.quotients), "certified": q,
                        "within_certified": max(segment.quotients) <= q,
                        "fixed_point_distance": q / (1.0 - q) * residual},
    }
    parameters = {"h": h, "fp_tol": 1e-8, "grid": 256, "max_iters": 1000}
    expected = _report("find-period", path, parameters, results, [out])
    argv = ["find-period", path, "--h", "1e-2", "--fp-tol", "1e-8", "--grid", "256", "--out", out]
    assert _stdout(argv, capsys) == _dumped(expected)


def test_compare_report_layout(capsys, monkeypatch):
    monkeypatch.delenv("PERIODYN_SEED", raising=False)
    path = builtin_config_path()
    model = load_model(path)
    pointwise, *rivals = compare_criteria(model, 256, 10, 3)
    criteria = [_criterion(pointwise)] + [
        {"criterion": label, "error": str(r)} if isinstance(r, ModelShapeError) else _criterion(r)
        for label, r in zip(("split-sup", "sup", "sup-period-scaled"), rivals)]
    results = {"criteria": criteria,
               "ensemble": run_ensemble(2, 3, grid=256, draws=10, workers=1)}
    parameters = {"grid": 256, "draws": 10, "seed": 3, "ensemble": 2, "workers": 1}
    expected = _report("compare", path, parameters, results)
    argv = ["compare", path, "--grid", "256", "--draws", "10", "--seed", "3", "--ensemble", "2"]
    assert _stdout(argv, capsys) == _dumped(expected)
