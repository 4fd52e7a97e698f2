"""Periodic orbit location and exponential rate measurement.

The period map advances an initial history by one period and re-bases the
trailing window to end at time zero.  Under the rate-extended certificate it
is a contraction in the weighted sup norm, so its iteration converges
geometrically; the fixed point is the attracting periodic orbit.  The search
speeds that iteration up with Anderson mixing of the last few maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrate import Trajectory, _period_plan, simulate, write_states_csv
from .kernels import TAIL_TOL
from .model import HermiteNodes, InitialCondition, NetworkModel, SampledIC, _positive_weights

ANDERSON_DEPTH = 3  # the orbit search mixes the differences of the last 3 + 1 maps


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

    ``residual_history`` and ``restarts`` record the search that found it.
    """

    omega: float
    h: float
    values: np.ndarray
    derivs: np.ndarray
    residual_history: tuple[float, ...] = ()
    restarts: int = 0

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


@dataclass(frozen=True)
class RateFit:
    """Least-squares decay rate of log error over a trailing window."""

    alpha_emp: float
    r_squared: float
    window: tuple[float, float]
    n_points: int = 0
    degenerate: bool = False


def lookback_steps(model: NetworkModel, h: float) -> int:
    """History window length (in steps) the period map must carry.

    The lag is the reach of the read plan a run of at least one period uses,
    so the window holds every node a delayed read interpolates between.
    """
    lag = _period_plan(model, h, TAIL_TOL, 2 * round(model.omega / h)).max_lag
    return max(1, int(math.ceil(lag / h - 1e-9)))


def _advance_one_period(model: NetworkModel, ic: InitialCondition,
                        h: float) -> tuple[SampledIC, Trajectory]:
    traj = simulate(model, ic, model.omega, h)
    return traj.history.window(lookback_steps(model, h)), traj


def period_map(model: NetworkModel, ic: InitialCondition, h: float) -> SampledIC:
    """Advance the history one period and re-base it to end at time 0."""
    sampled, _ = _advance_one_period(model, ic, h)
    return sampled


def find_periodic_orbit(model: NetworkModel, ic0: InitialCondition, h: float,
                        fp_tol: float = 1e-10, max_iters: int = 1000,
                        xi=None) -> tuple[PeriodSegment, float, int]:
    """Anderson-accelerated iteration of the period map G to its fixed point.

    After the first map, each iterate x is a window (node values and slopes
    on one grid) and its residual is the xi-weighted max of G(x) - x over the
    node values.  The next iterate mixes the last ANDERSON_DEPTH + 1 maps
    (Walker & Ni, SIAM J. Numer. Anal. 49(4) 2011): G(x) minus the
    combination of map differences that least-squares cancels the newest
    G(x) - x.  A residual above the best one so far drops that history and
    takes the plain step G(x) (a restart).  Raises NoConvergenceError (with
    the residual history) when the residual fails to shrink by x0.99 over
    20 consecutive maps or max_iters maps are spent.  The segment is the
    last map's trajectory and records the residual history and restarts.
    """
    xi = np.ones(model.n) if xi is None else _positive_weights(xi, model.n)
    current: InitialCondition = ic0
    residuals: list[float] = []
    restarts = 0
    mixed: list[np.ndarray] = []  # (G(x), G(x) - x) of each map being mixed
    for it in range(1, max_iters + 1):
        window, traj = _advance_one_period(model, current, h)
        g = np.concatenate((window.values, window.derivs))
        if it > 1:
            f = g - x
            res = float(np.max(np.abs(f[:len(window.values)]) / xi[None, :]))
            residuals.append(res)
            if res <= fp_tol:
                k = traj.states.shape[0]
                segment = PeriodSegment(
                    omega=model.omega, h=h,
                    values=traj.states.copy(),
                    derivs=traj.history.derivs[:k].copy(),
                    residual_history=tuple(residuals), restarts=restarts)
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
                       k_periods: int = 5, xi=None) -> float:
    """Simulate several periods from the segment and measure the repeat defect.

    Returns max over nodes of the weighted norm of u(t + omega) - u(t).
    """
    xi = np.ones(model.n) if xi is None else _positive_weights(xi, model.n)
    ic = segment.as_history(lookback_steps(model, h))
    traj = simulate(model, ic, k_periods * segment.omega, h)
    k = int(round(segment.omega / h))
    diff = traj.states[k:] - traj.states[:-k]
    return float(np.max(np.abs(diff) / xi[None, :]))


def estimate_decay_rate(model: NetworkModel, segment: PeriodSegment,
                        ic_perturbed: InitialCondition, h: float, t_end: float,
                        xi=None) -> RateFit:
    """Fit the exponential approach of a perturbed run toward the orbit.

    Fits log of the weighted distance over [t_end/4, t_end], skipping nodes
    below 1e-12.  A fit with fewer than two usable nodes is reported as
    degenerate (convergence faster than measurable), not as a failure.
    """
    xi = np.ones(model.n) if xi is None else _positive_weights(xi, model.n)
    traj = simulate(model, ic_perturbed, t_end, h)
    err = np.max(np.abs(traj.states - segment.eval(traj.times)) / xi[None, :], axis=1)
    lo = t_end / 4.0
    mask = (traj.times >= lo) & (err >= 1e-12)
    n_points = int(mask.sum())
    if n_points < 2:
        return RateFit(alpha_emp=math.inf, r_squared=0.0, window=(lo, t_end),
                       n_points=n_points, degenerate=True)
    tt = traj.times[mask]
    le = np.log(err[mask])
    slope, intercept = np.polyfit(tt, le, 1)
    pred = slope * tt + intercept
    ss_res = float(((le - pred) ** 2).sum())
    ss_tot = float(((le - le.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return RateFit(alpha_emp=float(-slope), r_squared=r2, window=(lo, t_end),
                   n_points=n_points)
