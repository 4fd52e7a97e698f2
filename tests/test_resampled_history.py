"""An initial history off the step grid, read at the grid times in one call.

``integrate._initial_nodes`` reads such a ``SampledIC`` through its own
cubics at every grid time at once.  These tests hold it to the per-node
reference in ``tests/helpers.py``, bit for bit.
"""

import numpy as np
import pytest

from periodyn.integrate import HistoryBuffer, _initial_nodes, _period_plan, simulate
from periodyn.model import ConstantIC, SampledIC
from periodyn.periodic import PeriodSegment

from helpers import period_map, resample_per_node, scalar_model


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _random_history(rng, start, step, nodes, n=3):
    shape = (nodes + 1, n)
    return SampledIC(start=start, step=step, values=rng.normal(size=shape),
                     derivs=rng.normal(size=shape))


@pytest.fixture(scope="module")
def halved_window(builtin):
    """The builtin's period-map window at h = 1e-2, to be read on the h/2 grid, and its reach."""
    h = 5e-3
    return period_map(builtin, ConstantIC((0.0,) * 3), 2 * h), h, _period_plan(
        builtin, h, 2 * round(builtin.omega / h)).max_lag


def test_builtin_window_on_the_half_step_grid_equals_the_per_node_reads(halved_window):
    window, h, lag = halved_window
    values, derivs = _initial_nodes(window, 0.0, h, lag)
    assert values.shape == (317, 3)
    expected = resample_per_node(window, 0.0, h, lag)
    assert _same_bits(values, expected[0]) and _same_bits(derivs, expected[1])


@pytest.mark.parametrize("start, step, nodes, h, lag", [
    (-1.3, 0.07, 19, 0.03, 2.0),  # ends at 0; the grid reaches before its first node
    (-1.3, 0.07, 15, 0.03, 1.0),  # ends at -0.25: the grid extrapolates its last cubic
    (-0.9, 0.05, 24, 0.02, 0.7),  # ends at 0.3, after the start of the run
    (-1.0, 0.05, 19, 0.05, 1.2),  # on the step, but ending a step before the start
])
def test_off_grid_histories_equal_the_per_node_reads(start, step, nodes, h, lag):
    ic = _random_history(np.random.default_rng(nodes), start, step, nodes)
    values, derivs = _initial_nodes(ic, 0.0, h, lag)
    expected = resample_per_node(ic, 0.0, h, lag)
    assert _same_bits(values, expected[0]) and _same_bits(derivs, expected[1])
    assert (derivs[np.arange(-values.shape[0] + 1, 1) * h <= start] == 0.0).all()


def test_the_resampling_locates_every_grid_time_in_one_call(halved_window, monkeypatch):
    window, h, lag = halved_window
    calls = []
    locate = SampledIC._locate

    def counting(self, t):
        calls.append(np.shape(t))
        return locate(self, t)

    monkeypatch.setattr(SampledIC, "_locate", counting)
    hist = HistoryBuffer(window, 0.0, h, 3, lag=lag)
    assert calls == [(hist.base,)]


@pytest.mark.parametrize("history", [
    object(),
    PeriodSegment(omega=1.0, h=0.5, values=np.zeros((3, 1)), derivs=np.zeros((3, 1))),
])
def test_any_other_history_is_refused(history):
    with pytest.raises(TypeError, match="ConstantIC or a SampledIC"):
        simulate(scalar_model(1.0), history, 1.0, 0.1)
