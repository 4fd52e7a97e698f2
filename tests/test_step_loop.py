"""The RK4 step loop: divergence inside a block, resolved activations, the stage's
formula, the --h flag, and the same bytes from separate processes.

``simulate`` checks finiteness once per block of steps and then reports the
first nonfinite node; ``_elementwise`` applies each table activation as its
numpy function, once per kind, masked or gathered, and never writes into its
argument; ``stage`` reads one sample's row views and takes ``a.dot``.  None of
them may move a bit or a reported time, and a mixed-activation network keeps
its bytes under any ``PYTHONHASHSEED``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from periodyn import cli
from periodyn.config import builtin_config_path, parse_config
from periodyn.expressions import const
from periodyn.integrate import (DivergenceError, HistoryBuffer, _elementwise, _period_plan,
                                _stage_function, simulate)
from periodyn.kernels import Atom, DelayKernel
from periodyn.model import ACTIVATIONS, Activation, ConstantIC

from helpers import scalar_model
from test_block_reads import MODELS, _per_step_run, inputs

KINDS = [Activation(kind, 1.0) for kind in ACTIVATIONS] + [Activation.saturating(0.7, 0.4)]
# the builtin network's activations replaced by three kinds each
MIXED = {"g": ["tanh", "arctan", "identity"],
         "f": ["arctan", {"kind": "satlin", "slope": 0.5, "cap": 2.0}, "tanh"]}


def _blocks(plan, steps):
    """(first, last) step of each block the loop of ``simulate`` runs."""
    m, out = 0, []
    while m < steps:
        size = max(min(plan.blocks[m % len(plan.blocks)], steps - m), 1)
        out.append((m + 1, m + size))
        m += size
    return out


@pytest.mark.parametrize("u0", [1.0, 1e-5])
def test_divergence_inside_a_block_reports_its_first_nonfinite_node(u0):
    # RK4 at d h = 6 grows the state about 31-fold a step; the delay of ten steps
    # makes every block ten steps long
    h, steps = 0.1, 400
    model = scalar_model(60.0, tau=const(1.0), kernel=DelayKernel((Atom(0.0, const(0.5)),)))
    ic = ConstantIC((u0,))
    with pytest.raises(DivergenceError) as per_step:
        _per_step_run(model, ic, h, steps)
    with pytest.raises(DivergenceError) as blocks:
        simulate(model, ic, steps * h, h)
    assert blocks.value.t == per_step.value.t
    node = round(blocks.value.t / h)
    first, last = next(b for b in _blocks(_period_plan(model, h, 20), steps)
                       if b[0] <= node <= b[1])
    assert first < last and node < last  # inside a block, not at its end


def _grouped(acts, units, x):
    """``acts[units[k]]`` on entry k through ``Activation.__call__``, one call per activation."""
    out = np.empty_like(x)
    for act in dict.fromkeys(acts[q] for q in units):
        pos = np.array([k for k, q in enumerate(units) if acts[q] == act], dtype=np.intp)
        out[..., pos] = act(x[..., pos])
    return out


@pytest.mark.parametrize("shape, layout", [
    pytest.param((7,), "random", id="shape0"),  # a stage's state
    pytest.param((5, 7), "random", id="shape1"),  # a read's samples
    # read blocks whose units change read by read (gathered) or run long (masked)
    pytest.param((5, 120), "alternating", id="alternating"),
    pytest.param((5, 120), "runs", id="runs"),
])
@pytest.mark.parametrize("mix", ["one"] + [f"mixed-{k}" for k in range(len(KINDS))])
def test_resolved_activations_keep_the_bits_of_activation_call(mix, shape, layout):
    rng = np.random.default_rng(3)
    x = rng.normal(scale=2.0, size=shape)
    x[..., 0] = 1e300  # saturates every kind but identity
    before = x.copy()
    units = {"random": rng.integers(0, 4, size=shape[-1]).tolist(),
             "alternating": [k % 4 for k in range(shape[-1])],
             "runs": [4 * k // shape[-1] for k in range(shape[-1])]}[layout]
    if mix == "one":
        for act in KINDS:
            acts = (act,) * 4
            assert _elementwise(acts, units)(x).tobytes() == act(x).tobytes()
            assert x.tobytes() == before.tobytes()  # identity returns its argument
    else:  # four units: the kind under test beside three others
        k = int(mix.split("-")[1])
        acts = tuple(KINDS[(k + j) % len(KINDS)] for j in range(4))
        got = _elementwise(acts, units)(x)
        assert x.tobytes() == before.tobytes()
        assert got.tobytes() == _grouped(acts, units, x).tobytes()


@pytest.mark.parametrize("which", sorted(MODELS) + ["wide3-30"])
def test_stage_keeps_its_formula_bit_for_bit(which):
    model = (parse_config(json.dumps(inputs.wide_network(3, 30))) if which == "wide3-30"
             else MODELS[which]())
    h, n = 0.01, model.n
    plan = _period_plan(model, h, 2 * round(model.omega / h))
    stage, _ = _stage_function(plan, HistoryBuffer(ConstantIC((0.0,) * n), 0.0, h, n))
    sm, rng = plan.sm, np.random.default_rng(5)
    for jh in rng.integers(0, 4 * len(plan.rows), size=40).tolist():
        u, delayed = rng.normal(size=n), rng.normal(size=n)
        r = jh % len(plan.rows)
        g = _grouped(model.g, range(n), u)
        expected = -sm.d[r] * u + sm.a[r] @ g + sm.inputs[r] + delayed
        assert stage(jh, u, delayed).tobytes() == expected.tobytes()


@pytest.mark.parametrize("h", ["0", "-0.01", "nan"])
@pytest.mark.parametrize("command", ["simulate", "find-period"])
def test_step_that_is_not_positive_is_a_usage_error(tmp_path, capsys, monkeypatch, command, h):
    calls = []
    monkeypatch.setattr(cli, "find_weights", lambda *a, **k: calls.append(a))
    argv = [command, builtin_config_path(), "--h", h] + (
        ["--t-end", "1"] if command == "simulate" else [])
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"error: argument --h: must be a number > 0, got {h}" in err
    assert calls == []  # before any work


@pytest.mark.parametrize("activations", [None, MIXED], ids=["builtin", "mixed"])
def test_find_period_is_byte_identical_across_processes(tmp_path, activations):
    src = str(Path(cli.__file__).resolve().parents[1])
    config = builtin_config_path()
    if activations is not None:  # several kinds in g and in f: the order of kinds and masks
        with open(config, encoding="utf-8") as fh:
            doc = json.load(fh)
        config = tmp_path / "mixed.json"
        config.write_text(json.dumps({**doc, "activations": activations}), encoding="utf-8")
    runs = []
    for seed in ("0", "1"):
        cwd = tmp_path / seed
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "periodyn.cli", "find-period", str(config),
             "--h", "1e-2", "--fp-tol", "1e-8", "--out", "orbit.csv"],
            capture_output=True, cwd=cwd, timeout=300,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, (cwd / "orbit.csv").read_bytes()))
    assert runs[0] == runs[1]
