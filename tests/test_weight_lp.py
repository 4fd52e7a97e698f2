"""The library's max-margin LP against scipy's HiGHS, and a runtime without scipy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog as highs

from periodyn import certify
from periodyn.certify import XI_BOX_MAX, _max_margin_weights

from test_fast_certificate import LP_CASES, grid_rows, random_model


def margin(A_ub, b_ub, x):
    """The largest t that the weights of ``x`` allow."""
    n = len(x) - 1
    return float((b_ub - A_ub[:, :n] @ x[:n]).min())


def assert_agrees_with_highs(c, A_ub, b_ub, bounds):
    own = certify.linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds)
    ref = highs(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert own.status == 0 and ref.status == 0
    assert margin(A_ub, b_ub, own.x) == pytest.approx(margin(A_ub, b_ub, ref.x), rel=1e-12)
    assert own.x[-1] == margin(A_ub, b_ub, own.x)
    lo, hi = np.array(bounds[:-1]).T
    assert ((lo <= own.x[:-1]) & (own.x[:-1] <= hi)).all()
    return own


def posed_lps(monkeypatch, rows):
    """The arguments of every LP that the cutting planes pose on ``rows`` (T, n, n)."""
    calls = []
    solve = certify.linprog

    def recording(c, A_ub=None, b_ub=None, bounds=None):
        calls.append((c, A_ub, b_ub, bounds))
        return solve(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds)

    monkeypatch.setattr(certify, "linprog", recording)
    assert _max_margin_weights(rows) is not None
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("name,build,grid", LP_CASES, ids=[c[0] for c in LP_CASES])
def test_lp_agrees_with_highs_on_every_grid(monkeypatch, name, build, grid):
    for call in posed_lps(monkeypatch, grid_rows(build(), grid)):
        assert_agrees_with_highs(*call)


def test_lp_agrees_with_highs_on_random_models(monkeypatch):
    for seed in range(300):
        for call in posed_lps(monkeypatch, grid_rows(random_model(seed), 1024)):
            assert_agrees_with_highs(*call)


def test_tied_optimum_has_one_margin():
    # t <= 2 xi_1 and t <= xi_2: the margin is 1e6 for every xi_1 in [5e5, 1e6]
    A_ub = np.array([[-2.0, 0.0, 1.0], [0.0, -1.0, 1.0]])
    own = assert_agrees_with_highs(np.array([0.0, 0.0, -1.0]), A_ub, np.zeros(2),
                                   [(1.0, XI_BOX_MAX)] * 2 + [(None, None)])
    assert own.x[-1] == XI_BOX_MAX
    assert 0.5 * XI_BOX_MAX <= own.x[0] <= XI_BOX_MAX


def test_degenerate_vertex_is_left():
    # every row is tight at unit weights, where the first pivots make no progress
    A_ub = np.hstack([np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0],
                                [-1.0, 0.0, 1.0]]), np.ones((4, 1))])
    assert_agrees_with_highs(np.array([0.0, 0.0, 0.0, -1.0]), A_ub, np.zeros(4),
                             [(1.0, XI_BOX_MAX)] * 3 + [(None, None)])


@pytest.mark.parametrize("change", ["objective", "free_xi", "t_column", "bounded_t"])
def test_other_lps_are_refused(change):
    c, A_ub, bounds = np.array([0.0, -1.0]), np.array([[-1.0, 1.0]]), [(1.0, 2.0), (None, None)]
    if change == "objective":
        c = np.array([1.0, -1.0])
    elif change == "free_xi":
        bounds = [(None, 2.0), (None, None)]
    elif change == "t_column":
        A_ub = np.array([[-1.0, 2.0]])
    else:
        bounds = [(1.0, 2.0), (0.0, None)]
    with pytest.raises(ValueError, match="max-margin LP"):
        certify.linprog(c, A_ub=A_ub, b_ub=np.zeros(1), bounds=bounds)


def test_cli_certifies_without_importing_scipy():
    src = str(Path(certify.__file__).resolve().parents[1])
    script = ("import sys\n"
              "from periodyn import cli\n"
              "code = cli.main(['certify', cli.builtin_config_path(), '--grid', '256'])\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')), file=sys.stderr)\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert '"certified": true' in proc.stdout
    assert proc.stderr == "[]\n"
