"""What a command pays for: activations admitted by their constants, a finite grid, one
subparser, and a config digest that loads no OpenSSL.

An activation that declares at least its kind's Lipschitz constant is
admitted without samples; one that declares less is reported, on the seeded
draws it has always been checked on.  A coefficient that is not finite on
the validation grid is reported by its path.  ``main`` builds only the
subparser of the command it runs, with the help and errors of the full parser.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from helpers import scalar_model
from periodyn import cli, model as model_module
from periodyn.config import builtin_config_path, config_hash, model_to_config, parse_config
from periodyn.expressions import TermTable, const, expr_sum, term_expr
from periodyn.model import Activation, builtin_example, validate
from test_term_table import inputs, two_unit

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


# --- activations -------------------------------------------------------------------

@pytest.mark.parametrize("act, name", [
    (Activation("arctan", 1 - 1e-7), "arctan"),
    (Activation("tanh", 0.9999999, 1.0), "tanh"),
])
def test_an_activation_below_its_constant_is_reported(act, name):
    # the samples show no excess above 1e-9, so the constant itself is reported
    assert validate(scalar_model(1.0, g=act)).violations == [
        f"g[0]: Lipschitz constant {act.lipschitz!r} is below {name}'s 1"]


def _refuse(*args):
    raise AssertionError("an admitted activation was sampled")


@pytest.mark.parametrize("make", [
    builtin_example,
    lambda: scalar_model(1.0, g=Activation.saturating(0.7, 2.0),
                         f=Activation.saturating(3.0, 0.5)),
    lambda: scalar_model(1.0, g=Activation("tanh", 2.0, 0.5), f=Activation.zero()),
])
def test_admitted_activations_are_not_sampled(make, monkeypatch):
    monkeypatch.setattr(model_module, "_activation_violations", _refuse)
    assert validate(make()).ok


def test_a_nan_constant_is_refused():
    with pytest.raises(ValueError):
        Activation("tanh", float("nan"))
    with pytest.raises(ValueError):
        Activation("satlin", 1.0, float("nan"))


def _sequential_violations(acts) -> dict:
    """Every distinct activation sampled in order on one stream, as each once was."""
    rng = np.random.default_rng(0)
    out = {}
    for act in dict.fromkeys(acts):
        s = np.linspace(-100.0, 100.0, 100_001)
        excess = np.abs(act(s)) - (act.lipschitz * np.abs(s) + act.offset)
        x = rng.uniform(-50.0, 50.0, size=20_000)
        h = rng.uniform(-5.0, 5.0, size=20_000)
        lip_excess = np.abs(act(x + h) - act(x)) - act.lipschitz * np.abs(h)
        out[act] = [f"growth bound violated (excess {excess.max():.3g})",
                    f"Lipschitz bound violated (excess {lip_excess.max():.3g})"]
    return out


def test_a_reported_activation_keeps_the_draws_of_its_position():
    # tanh at slope 0.5 reaches its sampled excess near one (x, h), so its third
    # digit moves with the draws; three admitted activations come before it
    g = (Activation.tanh(), Activation.arctan())
    f = (Activation.identity(), Activation("tanh", 0.5))
    want = _sequential_violations([g[0], f[0], g[1], f[1]])[f[1]]
    assert validate(two_unit(g=g, f=f)).violations == [f"f[1]: {m}" for m in want]


# --- a coefficient that is not finite on the grid ---------------------------------

def _overflowing_config(tmp_path) -> str:
    with open(builtin_config_path(), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["meta"]["omega"] = 2e12
    doc["kernels"][2][0]["atoms"][0]["weight"][0]["k"] = 4 * 10 ** 300
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["certify", "--grid", "256"],
    ["simulate", "--grid", "256", "--h", "1e-2", "--t-end", "0.5"],
    ["find-period", "--grid", "256", "--h", "1e-2"],
    ["compare", "--grid", "256", "--draws", "10"],
])
def test_an_overflowing_term_is_an_input_error(argv, tmp_path, capsys):
    path = _overflowing_config(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([argv[0], path, *argv[1:]])
    assert caught == []
    assert code == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {path}: model validation failed: kernels[2][0].atoms[0].weight: "
                   "not finite on the grid of 4096 times\n")


NOT_FINITE = "d[0]: not finite on the grid of 4096 times"


@pytest.mark.parametrize("d, want", [
    # one basis: the sum overflows where sin^2 is greatest
    (expr_sum(const(1e308), term_expr("sin2", 1e308, 1)), [NOT_FINITE]),
    # two bases, scanned over the whole grid: 1e308 + 1.5e308 (sin + cos) overflows
    # near t = 0.25 and is negative, yet finite, near t = 1.25
    (expr_sum(const(1e308), term_expr("sin", 1.5e308, 1), term_expr("cos", 1.5e308, 1)),
     [NOT_FINITE, "d_1 not positive at t=1.25"]),
])
def test_an_overflowing_sum_is_reported(d, want):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = validate(scalar_model(d, omega=2.0))
    assert caught == []
    assert report.violations == want


def test_bounds_are_nan_where_a_basis_is():
    table = TermTable({"g": (term_expr("sin", 1.0, 4 * 10 ** 300), const(1.0))})
    with np.errstate(over="ignore", invalid="ignore"):
        (least, greatest), = table.bounds(np.linspace(0.0, 2e12, 64, endpoint=False),
                                          ("g",)).values()
    assert np.isnan(least[0]) and np.isnan(greatest[0])
    assert (least[1], greatest[1]) == (1.0, 1.0)


# --- what a command imports --------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["certify", "--grid", "256"],
    ["simulate", "--grid", "256", "--h", "1e-2", "--t-end", "0.5"],
    ["find-period", "--grid", "256", "--h", "1e-2"],
])
def test_only_compare_imports_numpy_random(argv):
    code = ("import contextlib, io, sys\n"
            "from periodyn.cli import builtin_config_path, main\n"
            "argv = sys.argv[1:2] + [builtin_config_path()] + sys.argv[2:]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(argv) == 0\n"
            "print('numpy.random' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout == "False\n"


@pytest.mark.parametrize("argv", [
    ["certify", "--grid", "256"],
    ["simulate", "--grid", "256", "--h", "1e-2", "--t-end", "0.5"],
    ["find-period", "--grid", "256", "--h", "1e-2"],
])
def test_only_compare_loads_openssl(argv):
    # config_hash takes the interpreter's own SHA-256, not hashlib's OpenSSL one
    code = ("import contextlib, io, sys\n"
            "from periodyn.cli import builtin_config_path, main\n"
            "argv = sys.argv[1:2] + [builtin_config_path()] + sys.argv[2:]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(argv) == 0\n"
            "print('_hashlib' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout == "False\n"


@pytest.mark.parametrize("make", [
    builtin_example,
    lambda: parse_config(json.dumps(inputs.DISTRIBUTED)),
    lambda: parse_config(json.dumps(inputs.wide_network(3, 30))),
], ids=["builtin", "distributed", "wide3-30"])
def test_config_hash_is_hashlib_sha256(make):
    model = make()
    want = hashlib.sha256(json.dumps(model_to_config(model)).encode()).hexdigest()
    assert config_hash(model) == want


def test_config_hash_falls_back_to_hashlib():
    # where the interpreter has neither built-in module, the digest is hashlib's
    code = ("import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from periodyn.config import config_hash\n"
            "from periodyn.model import builtin_example\n"
            "print(config_hash(builtin_example()), '_hashlib' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout == f"{config_hash(builtin_example())} True\n"


# --- one subparser -----------------------------------------------------------------

def _parse(run, argv) -> tuple:
    """Exit code, stdout and stderr of ``run(argv)``, which must exit through argparse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            run(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


CONFIG = "model.json"  # never read: every case ends in argparse
COMMAND_PARSES = [argv for command in cli.COMMANDS
                  for argv in ([command, "--help"], [command], [command, CONFIG, "--grid", "0"],
                               [command, CONFIG, "--grid", "x"], [command, CONFIG, "--nope"])]
TOP_PARSES = [["--help"], ["nope"], [], ["--grid", "8", "certify"]]


def _ids(argv) -> str:
    return " ".join(argv) or "(no arguments)"


@pytest.mark.parametrize("argv", TOP_PARSES + COMMAND_PARSES, ids=_ids)
def test_main_parses_as_the_full_parser(argv):
    assert _parse(cli.main, argv) == _parse(cli.build_parser().parse_args, argv)


@pytest.mark.parametrize("argv", COMMAND_PARSES, ids=_ids)
def test_one_subparser_parses_as_the_full_parser(argv):
    assert (_parse(cli.build_parser(argv[0]).parse_args, argv)
            == _parse(cli.build_parser().parse_args, argv))


@pytest.mark.parametrize("argv, built", [
    (["certify", "missing.json"], ["certify"]), (["find-period", "--help"], ["find-period"]),
    (["--help"], [None]), (["nope"], [None]), ([], [None])], ids=lambda x: repr(x))
def test_main_builds_the_named_command_alone(argv, built, monkeypatch):
    build, calls = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda command=None: calls.append(command)
                        or build(command))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with contextlib.suppress(SystemExit):
            cli.main(argv)
    assert calls == built
