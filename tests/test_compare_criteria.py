"""One criteria pass for ``compare``: the batched split search and its call counts."""

import inspect
import json
import math

import numpy as np
import pytest

from periodyn import certify, cli
from periodyn.certify import (_report, _split_sup_rows, _split_sup_search, discrete_delay_form,
                              find_weights, random_discrete_delay_model)
from periodyn.expressions import const
from periodyn.kernels import Atom, DelayKernel
from periodyn.model import Activation

from helpers import scalar_model
from test_read_plan import DISTRIBUTED

DENSITY_ERROR = ("kernel[0][1] has a distributed density; sup criteria need single "
                 "discrete delays")


def _split_report(model, form, xi, alpha, a_exp, b_exp):
    """The split-sup report of one candidate (xi, exponents)."""
    xi, a_exp, b_exp = (np.asarray(v, dtype=float) for v in (xi, a_exp, b_exp))
    rows = _split_sup_rows(model, form, alpha, xi[None], a_exp[None], b_exp[None])[0]
    return _report("split-sup", rows, {"xi": [float(v) for v in xi], "alpha": float(alpha),
                                       "a_exp": a_exp.tolist(), "b_exp": b_exp.tolist()})


def _split_search(model, alpha, draws, seed, grid):
    """The split search the ensemble runs, seeded from the weights at min(grid, 1024)."""
    cert = find_weights(model, grid_points=min(grid, 1024))
    return _split_sup_search(model, discrete_delay_form(model, grid), alpha, draws, seed, cert)


def _replayed_split_search(model, alpha, draws, seed, grid):
    """The split search as a loop: candidates drawn one by one, each checked alone."""
    n = model.n
    half = np.full((n, n), 0.5)
    cert = find_weights(model, grid_points=min(grid, 1024))
    candidates = [(np.ones(n), half, half)] + ([(cert.xi, half, half)] if cert else [])
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        xi = np.exp(rng.uniform(-1.5, 1.5, size=n))
        a_exp = rng.uniform(0.05, 0.95, size=(n, n))
        b_exp = rng.uniform(0.05, 0.95, size=(n, n))
        candidates.append((xi, a_exp, b_exp))
    best, form = None, discrete_delay_form(model, grid)
    for xi, a_exp, b_exp in candidates:
        report = _split_report(model, form, xi, alpha, a_exp, b_exp)
        if best is None or report.worst_row_residual < best.worst_row_residual:
            best = report
        if best.satisfied:
            break
    return best


def _scalar_split_rows(model, form, xi, alpha, a_exp, b_exp):
    """The split criterion's rows term by term, in scalar arithmetic."""
    n = model.n
    G = [act.lipschitz for act in model.g]
    F = [act.lipschitz for act in model.f]
    rows = []
    for i in range(n):
        acc = (-form.d_inf[i] + alpha) * xi[i]
        cross_in = sum(xi[j] * form.a_sup[j, i] ** (2.0 * a_exp[j, i])
                       for j in range(n) if j != i)
        acc += G[i] * (xi[i] * form.a_sup[i, i] + 0.5 * cross_in)
        acc += 0.5 * xi[i] * sum(G[j] * form.a_sup[i, j] ** (2.0 * (1.0 - a_exp[i, j]))
                                 for j in range(n) if j != i)
        acc += 0.5 * F[i] * sum(xi[j] * form.b_sup[j, i] ** (2.0 * b_exp[j, i])
                                * math.exp(alpha * form.tau_sup[j, i]) for j in range(n))
        acc += 0.5 * xi[i] * sum(F[j] * form.b_sup[i, j] ** (2.0 * (1.0 - b_exp[i, j]))
                                 * math.exp(alpha * form.tau_sup[i, j]) for j in range(n))
        rows.append(acc)
    return rows


def test_split_rows_match_scalar_arithmetic_bit_for_bit():
    # the batched rows keep the order and the scalar pow of the per-row sums
    rng = np.random.default_rng(5)
    for seed in range(20):
        model = random_discrete_delay_model(np.random.default_rng(seed))
        form = discrete_delay_form(model, 256)
        for _ in range(25):
            xi = np.exp(rng.uniform(-1.5, 1.5, size=model.n))
            a_exp, b_exp = rng.uniform(0.05, 0.95, size=(2, model.n, model.n))
            rep = _split_report(model, form, xi, 0.0, a_exp, b_exp)
            scalar = _scalar_split_rows(model, form, xi, 0.0, a_exp, b_exp)
            assert rep.worst_row_residual == float(max(scalar)), f"seed {seed}"


@pytest.mark.parametrize("alpha", [0.0, 0.05])
def test_batched_split_search_matches_the_candidate_loop(alpha):
    sizes, outcomes = set(), set()
    for seed in range(40, 60):
        model = random_discrete_delay_model(np.random.default_rng(seed))
        batched = _split_search(model, alpha, 60, seed, 256)
        replayed = _replayed_split_search(model, alpha, 60, seed, 256)
        assert batched.witness == replayed.witness, f"seed {seed}"
        assert batched.satisfied == replayed.satisfied, f"seed {seed}"
        if alpha == 0.0:
            assert batched.worst_row_residual == replayed.worst_row_residual, f"seed {seed}"
        else:
            assert batched.worst_row_residual == pytest.approx(
                replayed.worst_row_residual, rel=1e-12, abs=1e-15), f"seed {seed}"
        sizes.add(model.n)
        outcomes.add(batched.satisfied)
    assert sizes == {1, 2, 3} and outcomes == {True, False}


def test_overflowing_lag_on_a_zero_gain_stays_finite():
    # e^{800 * 1} is past the float range, but no delayed gain multiplies it
    model = scalar_model(1.0, tau=const(1.0))
    half = np.full((1, 1), 0.5)
    rep = _split_report(model, discrete_delay_form(model), (1.0,), 800.0, half, half)
    assert rep.worst_row_residual == 799.0 and not rep.satisfied


@pytest.mark.parametrize("weight", [0.1, 1e-200])
def test_overflowing_lag_on_a_gain_is_a_violated_row_not_nan(weight):
    # at 1e-200 the power |b|^{1.9} underflows to 0 against the overflowing lag
    model = scalar_model(800.0, kernel=DelayKernel((Atom(0.0, const(weight)),)),
                         tau=const(1.0), g=Activation.zero())
    exps = np.full((1, 1), 0.95)
    rep = _split_report(model, discrete_delay_form(model), (1.0,), 800.0, exps, exps)
    assert rep.worst_row_residual == math.inf
    search = _split_search(model, 800.0, 5, 1, 64)
    assert search.worst_row_residual == math.inf and not search.satisfied


def _counted(monkeypatch, name):
    """Record the grid of every call to certify's ``name`` (and cli's, if it has one)."""
    calls = []
    original = getattr(certify, name)
    signature = inspect.signature(original)

    def counting(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments["grid_points"])
        return original(*args, **kwargs)

    monkeypatch.setattr(certify, name, counting)
    if hasattr(cli, name):
        monkeypatch.setattr(cli, name, counting)
    return calls


def _compare(argv, capsys):
    assert cli.main(["compare"] + argv) == 0
    return json.loads(capsys.readouterr().out)["results"]["criteria"]


def test_compare_at_1024_searches_weights_and_the_sup_form_once(monkeypatch, capsys):
    weights = _counted(monkeypatch, "find_weights")
    forms = _counted(monkeypatch, "discrete_delay_form")
    criteria = _compare([cli.builtin_config_path(), "--grid", "1024", "--draws", "20"], capsys)
    assert weights == [1024] and forms == [1024]
    assert [c["criterion"] for c in criteria] == [
        "pointwise-discrete", "split-sup", "sup", "sup-period-scaled"]


def test_compare_at_the_default_grid_seeds_the_split_search_at_1024(monkeypatch, capsys):
    weights = _counted(monkeypatch, "find_weights")
    forms = _counted(monkeypatch, "discrete_delay_form")
    _compare([cli.builtin_config_path(), "--draws", "20"], capsys)
    assert weights == [4096, 1024] and forms == [4096]


def test_compare_on_densities_reports_the_shape_error_three_times(monkeypatch, capsys,
                                                                   tmp_path):
    path = tmp_path / "distributed.json"
    path.write_text(json.dumps(DISTRIBUTED))
    weights = _counted(monkeypatch, "find_weights")
    criteria = _compare([str(path), "--grid", "256"], capsys)
    assert weights == [256]
    assert criteria[0]["criterion"] == "pointwise" and criteria[0]["satisfied"] is True
    assert criteria[1:] == [{"criterion": label, "error": DENSITY_ERROR}
                            for label in ("split-sup", "sup", "sup-period-scaled")]
