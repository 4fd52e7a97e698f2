"""find-period checks the orbit search's contraction against the certified rate."""

import json
import math

import pytest

from periodyn import cli, periodic
from periodyn.cli import builtin_config_path, main, model_to_config
from periodyn.expressions import const, term_expr
from periodyn.kernels import Atom, DelayKernel
from periodyn.model import Activation

from helpers import scalar_model

# u' = -d u + sin(pi t): the period map contracts by e^{-d omega}, and the certified rate is d
D, OMEGA = 1.3, 2.0
LINEAR = {"meta": {"n": 1, "omega": OMEGA}, "d": [D], "a": [[0.0]], "kernels": [[None]],
          "tau": [[0.0]], "inputs": [[{"amp": 1.0, "fn": "sin", "k": 1}]],
          "activations": {"g": ["identity"], "f": ["identity"]}}


def _contraction(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr()
    return json.loads(out.out)["results"]["contraction"], out.err


def test_scalar_linear_map_contracts_at_its_known_rate(tmp_path, capsys):
    path = tmp_path / "linear.json"
    path.write_text(json.dumps(LINEAR))
    contraction, err = _contraction(["find-period", str(path), "--h", "1e-2", "--grid", "256"],
                                    capsys)
    assert contraction["observed"] == pytest.approx(math.exp(-D * OMEGA), abs=1e-6)
    assert contraction["certified"] == pytest.approx(math.exp(-D * OMEGA), abs=1e-5)
    assert contraction["within_certified"] is True and err == ""


def test_lag_one_map_contracts_within_the_certified_rate_in_the_window_norm(tmp_path, capsys):
    # u' = -2u + u(t - 1) + sin(2 pi t), omega = 1: the window reaches a whole period back,
    # where the certificate's norm weights the node at time s by e^{alpha s}
    model = scalar_model(2.0, kernel=DelayKernel((Atom(1.0, const(1.0)),)), g=Activation.zero(),
                         inputs=term_expr("sin", 1.0, 2))
    path = tmp_path / "lag_one.json"
    path.write_text(json.dumps(model_to_config(model)))
    contraction, err = _contraction(["find-period", str(path), "--h", "1e-2", "--grid", "512"],
                                    capsys)
    assert contraction["observed"] <= contraction["certified"]
    assert contraction["within_certified"] is True and err == ""


def test_a_contraction_worse_than_certified_is_flagged(monkeypatch, capsys):
    monkeypatch.setattr(cli, "find_decay_rate", lambda model, xi, grid_points: 5.0)
    contraction, err = _contraction(["find-period", builtin_config_path(), "--h", "1e-2",
                                     "--fp-tol", "1e-8", "--grid", "256"], capsys)
    assert contraction["certified"] == math.exp(-10.0)
    assert contraction["observed"] > contraction["certified"]
    assert contraction["within_certified"] is False
    assert err.startswith("warning: the period map contracted by ")


def test_default_builtin_run_simulates_at_most_12_periods(monkeypatch, capsys):
    spans = []
    simulate = periodic.simulate

    def counting(model, ic, t_end, h, **kwargs):
        spans.append(t_end / model.omega)
        return simulate(model, ic, t_end, h, **kwargs)

    monkeypatch.setattr(periodic, "simulate", counting)
    contraction, _ = _contraction(["find-period", builtin_config_path(), "--h", "1e-2"], capsys)
    assert sum(spans) <= 12.0
    assert contraction["observed"] < contraction["certified"] < 1.0
