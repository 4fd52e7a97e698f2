"""Periodic orbit location.

The period map advances an initial history by one period and re-bases the
trailing window to end at time zero.  Under the rate-extended certificate
(weights xi, rate alpha) it contracts by e^{-alpha omega} in the window norm
that weights the node at time s <= 0 by e^{alpha s}, so its iteration
converges geometrically; the fixed point is the attracting periodic orbit.
The search speeds that iteration up with Anderson mixing of the last few
maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrate import Trajectory, _period_plan, simulate, write_states_csv
from .model import (HermiteNodes, InitialCondition, NetworkModel, SampledIC, _positive_weights,
                    holding)

ANDERSON_DEPTH = 3  # the orbit search mixes the differences of the last 3 + 1 maps
QUOTIENT_FLOOR = 1e-12  # iterates closer than this, relative to their size, give no quotient


class NoConvergenceError(RuntimeError):
    """Period-map iteration stagnated above the fixed-point tolerance."""

    def __init__(self, residual_history: list[float], restarts: int = 0):
        last = residual_history[-1] if residual_history else math.nan
        super().__init__(f"period-map iteration did not converge (last residual {last:.3g})")
        self.residual_history = residual_history
        self.restarts = restarts


@dataclass(frozen=True, eq=False)
class PeriodSegment(HermiteNodes):
    """One period of the located orbit, wrapped periodically for evaluation.

    ``residual_history``, ``restarts`` and ``quotients`` (each map's
    contraction quotient) record the search that found it.
    """

    omega: float
    h: float
    values: np.ndarray
    derivs: np.ndarray
    residual_history: tuple[float, ...] = ()
    restarts: int = 0
    quotients: tuple[float, ...] = ()

    start = 0.0

    @property
    def step(self) -> float:
        return self.h

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def nodes_per_period(self) -> int:
        return self.values.shape[0] - 1

    @property
    def seam_gap(self) -> float:
        """Continuity defect between the two endpoints of the stored period."""
        return float(np.abs(self.values[-1] - self.values[0]).max())

    def _locate(self, t):
        return super()._locate(t - self.omega * np.floor(t / self.omega))

    def eval(self, t) -> np.ndarray:
        """State at time ``t``; an array of times gives ``(*t.shape, n)``."""
        idx, theta = self._locate(t)
        return self._value(idx, np.asarray(theta)[..., None])

    def eval_component(self, t: float, j: int) -> float:
        return float(self._value(*self._locate(t), j))

    def as_history(self, lookback_steps: int) -> SampledIC:
        """Wrap the segment into a sampled history over [-lookback, 0]."""
        m = max(int(lookback_steps), 1)
        rows = np.arange(-m, 1) % self.nodes_per_period
        return SampledIC(start=-m * self.h, step=self.h,
                         values=self.values[rows], derivs=self.derivs[rows])

    def write_csv(self, path) -> None:
        times = np.arange(self.values.shape[0]) * self.h
        write_states_csv(path, times, self.values)


def lookback_steps(model: NetworkModel, h: float) -> int:
    """History window length (in steps) the period map must carry.

    The lag is the reach of the read plan a run of at least one period uses,
    so the window holds every node a delayed read interpolates between.
    """
    lag = _period_plan(model, h, 2 * round(model.omega / h)).max_lag
    return max(1, int(math.ceil(lag / h - 1e-9)))


def _advance_one_period(model: NetworkModel, ic: InitialCondition,
                        h: float) -> tuple[SampledIC, Trajectory]:
    traj = simulate(model, ic, model.omega, h)
    steps = lookback_steps(model, h)
    with holding("tau", f"delays that reach {steps * h:.3g} need a period-map window of "
                 f"{steps:.3g} steps of h={h}, too many to hold in memory"):
        return traj.history.window(steps), traj


def period_map(model: NetworkModel, ic: InitialCondition, h: float) -> SampledIC:
    """Advance the history one period and re-base it to end at time 0."""
    sampled, _ = _advance_one_period(model, ic, h)
    return sampled


def find_periodic_orbit(model: NetworkModel, ic0: InitialCondition, h: float,
                        fp_tol: float = 1e-10, max_iters: int = 1000,
                        xi=None, alpha: float = 0.0) -> tuple[PeriodSegment, float, int]:
    """Anderson-accelerated iteration of the period map G to its fixed point.

    After the first map, each iterate x is a window (node values and slopes
    on one grid) and its residual is the xi-weighted max of G(x) - x over the
    node values.  The next iterate mixes the last ANDERSON_DEPTH + 1 maps
    (Walker & Ni, SIAM J. Numer. Anal. 49(4) 2011): G(x) minus the
    combination of map differences that least-squares cancels the newest
    G(x) - x.  A residual above the best one so far drops that history and
    takes the plain step G(x) (a restart).  Each map after the second also
    gives the quotient |G(x) - G(x')| / |x - x'| with the previous iterate
    x', unless |x - x'| is at rounding level (``QUOTIENT_FLOOR`` times |x|):
    the contraction the search observed.  The quotient's norm also weights
    the node at time s by e^{alpha s}, the norm in which a certificate of
    rate ``alpha`` proves the map contracts by e^{-alpha omega}.
    Raises NoConvergenceError (with the residual history) when the residual
    fails to shrink by x0.99 over 20 consecutive maps or max_iters maps are
    spent.  The segment is the last map's trajectory and records the
    residual history, restarts and quotients.
    """
    xi = np.ones(model.n) if xi is None else _positive_weights(xi, model.n)

    def norm(v: np.ndarray, decay=1.0) -> float:  # xi-weighted max over node values, times decay
        return float(np.max(np.abs(v[:len(window.values)]) / xi * decay))

    current: InitialCondition = ic0
    residuals: list[float] = []
    quotients: list[float] = []
    restarts = 0
    mixed: list[np.ndarray] = []  # (G(x), G(x) - x) of each map being mixed
    for it in range(1, max_iters + 1):
        window, traj = _advance_one_period(model, current, h)
        g = np.concatenate((window.values, window.derivs))
        if it == 1:  # e^{alpha s} at the window's nodes, which every map shares; 1.0 at s = 0
            decay = np.exp(alpha * window.step * np.arange(1 - len(window.values), 1))[:, None]
        else:
            f = g - x
            res = norm(f)
            residuals.append(res)
            if it > 2 and (step := norm(x - last[0], decay)) > QUOTIENT_FLOOR * norm(x, decay):
                quotients.append(norm(g - last[1], decay) / step)
            last = x, g  # neither array is written to: the mixing makes a new g
            if res <= fp_tol:
                k = traj.states.shape[0]
                segment = PeriodSegment(
                    omega=model.omega, h=h,
                    values=traj.states.copy(),
                    derivs=traj.history.derivs[:k].copy(),
                    residual_history=tuple(residuals), restarts=restarts,
                    quotients=tuple(quotients))
                return segment, res, it
            if len(residuals) >= 21 and residuals[-1] > 0.99 * residuals[-21]:
                raise NoConvergenceError(residuals, restarts)
            if it == max_iters:
                break
            if len(residuals) > 1 and res > min(residuals[:-1]):
                restarts += 1
                mixed = []
            mixed = mixed[-ANDERSON_DEPTH:] + [np.stack((g, f))]
            if len(mixed) > 1:
                d_g, d_f = np.moveaxis(np.diff(mixed, axis=0), 1, 0)
                gamma = np.linalg.lstsq(d_f.reshape(len(d_f), -1).T, f.ravel(), rcond=None)[0]
                g = g - np.tensordot(gamma, d_g, axes=1)
        x = g
        current = SampledIC(start=window.start, step=window.step,
                            values=x[:len(window.values)], derivs=x[len(window.values):])
    raise NoConvergenceError(residuals, restarts)


def verify_periodicity(segment: PeriodSegment, model: NetworkModel, h: float,
                       k_periods: int = 2, xi=None) -> float:
    """Simulate k_periods periods from the segment and measure the repeat defect.

    Returns max over nodes of the weighted norm of u(t + omega) - u(t), so
    the default two periods give one period of differences.
    """
    xi = np.ones(model.n) if xi is None else _positive_weights(xi, model.n)
    ic = segment.as_history(lookback_steps(model, h))
    traj = simulate(model, ic, k_periods * segment.omega, h)
    k = int(round(segment.omega / h))
    diff = traj.states[k:] - traj.states[:-k]
    return float(np.max(np.abs(diff) / xi[None, :]))

