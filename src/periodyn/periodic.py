"""Periodic orbit location.

The period map advances an initial history by one period and re-bases the
trailing window to end at time zero.  Under the rate-extended certificate
(weights xi, rate alpha) it contracts by e^{-alpha omega} in the window norm
that weights the node at time s <= 0 by e^{alpha s}, so its iteration
converges geometrically; the fixed point is the attracting periodic orbit.
The search speeds that iteration up with Anderson mixing of the last few
maps and, where they are cheap, starts it near the orbit with waveform-
relaxation sweeps over the whole period (Lelarasmee, Ruehli &
Sangiovanni-Vincentelli, IEEE TCAD 1(3), 1982).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import _BLOCK_VALUES
from .integrate import (HistoryBuffer, Trajectory, _elementwise, _period_plan, _stage_function,
                        simulate, write_states_csv)
from .model import (HermiteNodes, InitialCondition, NetworkModel, SampledIC, _positive_weights,
                    holding)

ANDERSON_DEPTH = 3  # the orbit search mixes the differences of the last 3 + 1 maps
PREDICTOR_MAX_READS = 64  # delayed reads per sample up to which sweeps pay for themselves
QUOTIENT_FLOOR = 1e-12  # iterates or maps closer than this, relative to their size: no quotient


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
    predictor_residuals: tuple[float, ...] = ()

    start = 0.0

    @property
    def step(self) -> float:
        return self.h

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

    def as_history(self, lookback_steps: int) -> SampledIC:
        """Wrap the segment into a sampled history over [-lookback, 0]."""
        m = max(int(lookback_steps), 1)
        rows = np.arange(-m, 1) % (self.values.shape[0] - 1)
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


def _anderson(mixed: list[np.ndarray], g: np.ndarray, f: np.ndarray):
    """Add (G(x), G(x) - x) to the mixed pairs; the mixed iterate from the last DEPTH + 1."""
    mixed = mixed[-ANDERSON_DEPTH:] + [np.stack((g, f))]
    if len(mixed) > 1:
        d_g, d_f = np.moveaxis(np.diff(mixed, axis=0), 1, 0)
        gamma = np.linalg.lstsq(d_f.reshape(len(d_f), -1).T, f.ravel(), rcond=None)[0]
        g = g - np.tensordot(gamma, d_g, axes=1)
    return mixed, g


@np.errstate(all="ignore")  # a sweep that overflows is refused as nonfinite
def _predict(model: NetworkModel, ic0: InitialCondition, h: float, fp_tol: float, xi: np.ndarray,
             steps: int) -> tuple[np.ndarray | None, list[float]]:
    """Waveform-relaxation sweeps to the orbit: its window of ``steps`` steps or None, residuals.

    They run where a sample reads at most ``PREDICTOR_MAX_READS`` delayed
    values and each unit's d has a positive integral over the period.  A
    sweep freezes all but -d(t) u at the guess, read at the period's 2N + 1
    half-step samples (the delays through the stages' read plan), and solves
    u' = -d(t) u + r(t) per unit: Simpson's rule gives u_{m+1} = e_m u_m + c_m
    per step, and a doubling scan of products of the e_m, none of which
    overflows where d > 0, solves that with u_N = u_0.  The certificate's row
    condition makes a sweep contract in the xi-weighted sup norm.  From the
    constant ``ic0.eval(0)``, mixed as the maps are, the sweeps stop at a
    residual at most ``fp_tol``, or give None when nonfinite, above the best
    residual or 20 sweeps without a 1% gain.
    """
    plan = _period_plan(model, h, 2 * (N := round(model.omega / h)))
    s = np.arange(2 * N + 1) % (2 * N)  # the period's half-step samples, the last at omega
    d, a, inputs = plan.sm.d[s], plan.sm.a[s], plan.sm.inputs[s]
    step = (h / 6.0) * (d[:-1:2] + 4.0 * d[1::2] + d[2::2])  # the integral of d over each step
    if plan.col.size > PREDICTOR_MAX_READS or not (step.sum(axis=0) > 0.0).all():
        return None, []
    e, gain = np.exp(-step), -np.expm1(-step.sum(axis=0))  # gain: 1 - e_0 ... e_{N-1}
    tail = 4.0 * np.exp((h / 24.0) * (d[:-1:2] - 8.0 * d[1::2] - 5.0 * d[2::2]))
    rows = np.arange(-(N + steps), 1) % N  # the guess repeated over the reach of its reads
    jh, size = np.arange(-2 * N, 1), max(1, _BLOCK_VALUES // max(plan.col.size, model.n))
    g_act = _elementwise(model.g, range(model.n))

    def sweep(x: np.ndarray) -> np.ndarray:
        v, m = x[:N + 1], x[N + 1:]
        hist = SampledIC(start=-(N + steps) * h, step=h, values=v[rows], derivs=m[rows])
        delayed = _stage_function(plan, HistoryBuffer(hist, 0.0, h, model.n))[1]
        u = np.empty((jh.size, model.n))
        u[::2], u[1::2] = v, 0.5 * (v[:-1] + v[1:]) + (0.125 * h) * (m[:-1] - m[1:])
        r = (a @ g_act(u)[..., None])[..., 0] + inputs + np.concatenate(
            [delayed(jh[k:k + size]) for k in range(0, jh.size, size)])
        c, prod, k = (h / 6.0) * (e * r[:-1:2] + tail * r[1::2] + r[2::2]), e.copy(), 1
        while k < N:  # c_m and prod_m end as u_{m+1} from u_0 = 0, and e_0 ... e_m
            c[k:] += prod[k:] * c[:-k]
            prod[k:] *= prod[:-k]
            k *= 2
        v = np.vstack((u0 := c[-1] / gain, prod[:-1] * u0 + c[:-1], u0))
        return np.concatenate((v, r[::2] - d[::2] * v))

    x, residuals, mixed = np.repeat([ic0.eval(0.0), np.zeros(model.n)], N + 1, axis=0), [], []
    while np.isfinite(g := sweep(x)).all():
        residuals.append(res := float(np.max(np.abs(g[:N + 1] - x[:N + 1]) / xi)))
        if res <= fp_tol:
            return np.concatenate((g[rows[-steps - 1:]], g[N + 1 + rows[-steps - 1:]])), residuals
        if res > min(residuals[-2:]) or len(residuals) > 20 and res > 0.99 * residuals[-21]:
            break  # above the last residual, the best as they fell so far, or stagnating
        mixed, x = _anderson(mixed, g, g - x)
    return None, residuals


def find_periodic_orbit(model: NetworkModel, ic0: InitialCondition, h: float,
                        fp_tol: float = 1e-10, max_iters: int = 1000,
                        xi=None, alpha: float = 0.0) -> tuple[PeriodSegment, float, int]:
    """Anderson-accelerated iteration of the period map G to its fixed point.

    The first map runs from ``ic0``.  Where the sweeps of :func:`_predict` run
    and converge, their window is then the first iterate instead of G(ic0):
    it lies within the step's discretisation of the fixed point.  With
    q = e^{-alpha omega} < 1, G(ic0) lies within q / (1 - q) |G(ic0) - ic0|
    of it in the norm below, so a window more than twice that far from G(ic0)
    is dropped: G(ic0) is nearer.  Each
    iterate x is a window (node values and slopes on one grid) and its
    residual is the xi-weighted max of G(x) - x over the node values.  The
    next iterate mixes the last ANDERSON_DEPTH + 1 maps (Walker & Ni, SIAM J.
    Numer. Anal. 49(4) 2011): G(x) minus the combination of map differences
    that least-squares cancels the newest G(x) - x.  A residual above the best
    one so far drops that history and takes the plain step G(x) (a restart).
    Each map after the second (and the second after the sweeps, with x' =
    ic0) also gives the quotient |G(x) - G(x')| / |x - x'| with the previous
    iterate x', unless either difference is at rounding level
    (``QUOTIENT_FLOOR`` times |x| or |G(x)|): the contraction the search
    observed.  Its norm also weights the node at time s by e^{alpha s}, the
    norm in which a certificate of rate ``alpha`` proves the map contracts by
    e^{-alpha omega}.  Raises NoConvergenceError (with the residual history)
    when the residual fails to shrink by x0.99 over 20 consecutive maps or
    max_iters maps are spent; the count of maps is the third value returned.
    The segment is the last map's trajectory and records the residual
    history, restarts, quotients and the sweeps' residuals (empty where they
    did not run).
    """
    xi = np.ones(model.n) if xi is None else _positive_weights(xi, model.n)

    def norm(v: np.ndarray, decay=1.0) -> float:  # xi-weighted max over node values, times decay
        return float(np.max(np.abs(v[:len(window.values)]) / xi * decay))

    residuals: list[float] = []
    quotients: list[float] = []
    current, restarts, last = ic0, 0, ()  # last: the previous iterate and its map, once known
    mixed: list[np.ndarray] = []  # (G(x), G(x) - x) of each map being mixed
    for it in range(1, max_iters + 1):
        window, traj = _advance_one_period(model, current, h)
        g = np.concatenate((window.values, window.derivs))
        if it == 1:  # e^{alpha s} at the window's nodes, which every map shares; 1.0 at s = 0
            decay = np.exp(alpha * window.step * np.arange(1 - len(window.values), 1))[:, None]
            prediction, predicted = _predict(model, ic0, h, fp_tol, xi, len(window.values) - 1)
            if prediction is not None:  # the first iterate, in place of G(ic0), where nearer
                start = np.array([ic0.eval(t) for t in window.step * np.arange(1 - len(g) // 2, 1)])
                start, q = np.concatenate((start, 0.0 * start)), math.exp(-alpha * model.omega)
                if q * norm(g - start, decay) >= 0.5 * (1.0 - q) * norm(prediction - g, decay):
                    last, g = (start, g), prediction
        else:
            f = g - x
            res = norm(f)
            residuals.append(res)
            step, moved = (norm(x - last[0], decay), norm(g - last[1], decay)) if last else (0, 0)
            if step > QUOTIENT_FLOOR * norm(x, decay) and moved > QUOTIENT_FLOOR * norm(g, decay):
                quotients.append(moved / step)
            last = x, g  # neither array is written to: the mixing makes a new g
            if res <= fp_tol:
                k = traj.states.shape[0]
                segment = PeriodSegment(
                    omega=model.omega, h=h,
                    values=traj.states.copy(),
                    derivs=traj.history.derivs[:k].copy(),
                    residual_history=tuple(residuals), restarts=restarts,
                    quotients=tuple(quotients), predictor_residuals=tuple(predicted))
                return segment, res, it
            if len(residuals) >= 21 and residuals[-1] > 0.99 * residuals[-21]:
                raise NoConvergenceError(residuals, restarts)
            if it == max_iters:
                break
            if len(residuals) > 1 and res > min(residuals[:-1]):
                restarts += 1
                mixed = []
            mixed, g = _anderson(mixed, g, f)
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

