"""Certify builds each grid array once: the alpha = 0 gain, the weight search's rows in place,
the rate's buffers and its chord."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from periodyn import certify, cli
from periodyn.certify import XI_BOX_MAX, find_decay_rate, find_weights
from periodyn.config import builtin_config_path
from periodyn.model import sampled

from test_cli import _limit_address_space
from test_fast_certificate import full_bisection, random_model, wide


def test_one_certify_builds_the_rate_zero_gain_once(monkeypatch, capsys):
    # the weight search builds it; the bounds read its row sums and sup
    rates = []
    build = certify._kernel_gain

    def counting(sm, alpha):
        rates.append(alpha)
        return build(sm, alpha)

    monkeypatch.setattr(certify, "_kernel_gain", counting)
    certify._ConditionGrid.cache_clear()
    assert cli.main(["certify", builtin_config_path(), "--grid", "512"]) == 0
    assert rates == [0.0]
    assert '"certified": true' in capsys.readouterr().out


def test_decay_rate_equals_the_full_bisection_at_grid_4096():
    for seed in range(4):
        model = wide(seed)
        xi = find_weights(model, 4096).xi
        assert find_decay_rate(model, xi, 4096) == full_bisection(model, xi, 4096), seed


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tol=st.floats(1e-9, 1e-2),
       xi=st.lists(st.floats(1.0, XI_BOX_MAX), min_size=3, max_size=3))
def test_decay_rate_equals_the_full_bisection_for_any_weights(seed, tol, xi):
    # a sample its chord skips must lie at or below 0 in the full bisection too
    model = random_model(seed)
    xi = xi[:model.n]
    assert find_decay_rate(model, xi, 128, tol=tol) == full_bisection(model, xi, 128, tol=tol)


def test_decay_rate_memory_is_at_most_five_time_by_part_arrays():
    # coefficients, lags and two buffers, made once: 4.3 T K 8 bytes measured (5.2 before)
    model = wide(0)
    sm = sampled(model, 4096, model.omega / 4096)
    tracemalloc.start()
    try:
        find_decay_rate(model, np.ones(model.n), 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * sm.kernel_weights.size * 8


def test_weight_search_memory_is_at_most_two_and_a_half_gain_arrays():
    # the kernel gain becomes the delayed term in place, and G_j |a_ij| is the one more
    # (T, n, n) array: 2.07 of them measured (4.16 before)
    model = wide(0)
    sm = sampled(model, 4096, model.omega / 4096)
    tracemalloc.start()
    try:
        find_weights(model, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sm.a.nbytes


def test_grid_whose_certificate_arrays_do_not_fit_is_an_input_error():
    # 10^7 samples of the bundled model fit under the limit; the grid's gains do not
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "periodyn.cli", "certify", builtin_config_path(),
                           "--grid", "10000000"],
                          capture_output=True, text=True, preexec_fn=_limit_address_space,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: --grid: ") and "in memory" in proc.stderr
    assert "Traceback" not in proc.stderr
