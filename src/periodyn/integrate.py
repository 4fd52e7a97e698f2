"""Fixed-step RK4 for the delayed network with dense-output history.

The step is fixed at an exact divisor of the period so the period map is
exact on nodes.  Node values and derivatives feed a cubic Hermite continuous
extension used for all delayed lookups; stage lookups that land inside the
current step (delays shorter than the step) evaluate the newest Hermite
cubic beyond its interval instead of solving implicit stage equations.
Coefficient expressions are cached over one period at half-step resolution,
which also makes the periodicity of the flow exact in floating point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import density_quadrature
from .model import (HermiteNodes, InitialCondition, NetworkModel, SampledIC, SampledModel,
                    sampled)


class HistoryUnderrunError(RuntimeError):
    """A delayed lookup needed times beyond the represented history."""


class DivergenceError(RuntimeError):
    def __init__(self, t: float):
        super().__init__(f"state became nonfinite at t={t:.6g}")
        self.t = t


class HistoryBuffer(HermiteNodes):
    """Uniform node grid with Hermite interpolation and an initial segment.

    Times at or before ``start_time`` delegate to the initial condition;
    times up to ``horizon`` just past the last node are served by
    extrapolating the newest cubic; anything later raises.
    """

    def __init__(self, ic: InitialCondition, start_time: float, h: float, n: int,
                 capacity: int = 64):
        self.ic = ic
        self.start_time = float(start_time)
        self.h = self.step = float(h)  # the Hermite base reads ``step``
        self.n = int(n)
        self.values = np.empty((max(capacity, 2), n))
        self.derivs = np.empty((max(capacity, 2), n))
        self.count = 0
        self.horizon = float(start_time)

    @property
    def last_time(self) -> float:
        return self.start_time + (self.count - 1) * self.h

    def append(self, u: np.ndarray, du: np.ndarray) -> None:
        if self.count == self.values.shape[0]:
            grown_v = np.empty((2 * self.count, self.n))
            grown_d = np.empty((2 * self.count, self.n))
            grown_v[: self.count] = self.values
            grown_d[: self.count] = self.derivs
            self.values = grown_v
            self.derivs = grown_d
        self.values[self.count] = u
        self.derivs[self.count] = du
        self.count += 1

    def set_last_derivative(self, du: np.ndarray) -> None:
        self.derivs[self.count - 1] = du

    def _locate(self, t: float) -> tuple[int, float]:
        """Interval of a time after the start; -1 means one node (Taylor step)."""
        x = (t - self.start_time) / self.h
        last = self.count - 1
        if x < last:
            idx = int(x)
            return idx, x - idx
        eps = 1e-9 * self.h
        if t <= self.last_time + eps or t <= self.horizon + eps:
            if last >= 1:
                return last - 1, x - (last - 1)
            return -1, 0.0
        raise HistoryUnderrunError(
            f"lookup at t={t!r} beyond history end {self.last_time!r}")

    def lookup_scalar(self, t: float, j: int) -> float:
        if t <= self.start_time:
            return self.ic.eval_component(t, j)
        idx, theta = self._locate(t)
        if idx < 0:
            return float(self.values[0, j] + (t - self.start_time) * self.derivs[0, j])
        return float(self._value(idx, theta, j))

    def lookup(self, t: float) -> np.ndarray:
        if t <= self.start_time:
            return np.asarray(self.ic.eval(t), dtype=float)
        idx, theta = self._locate(t)
        if idx < 0:
            return self.values[0] + (t - self.start_time) * self.derivs[0]
        return self._value(idx, theta)

    def derivative(self, t: float) -> np.ndarray:
        if t <= self.start_time:
            return np.array([self.ic.derivative_component(t, j) for j in range(self.n)])
        idx, theta = self._locate(t)
        if idx < 0:
            return self.derivs[0].copy()
        return self._slope(idx, theta)

    def window(self, steps: int) -> SampledIC:
        """Copy of the newest ``steps`` steps, re-based to end at time 0."""
        first = self.count - 1 - steps
        values = self.values[max(first, 0): self.count]
        derivs = self.derivs[max(first, 0): self.count]
        if first < 0:
            times = self.start_time + np.arange(first, 0) * self.h
            values = np.concatenate([[self.lookup(t) for t in times], values])
            derivs = np.concatenate([[self.derivative(t) for t in times], derivs])
        return SampledIC(start=-steps * self.h, step=self.h,
                         values=values.copy(), derivs=derivs.copy())


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Node times/states of one run plus the dense history behind them."""

    times: np.ndarray
    states: np.ndarray
    history: HistoryBuffer

    def write_csv(self, path) -> None:
        write_states_csv(path, self.times, self.states)


def write_states_csv(path, times: np.ndarray, states: np.ndarray) -> None:
    """CSV schema ``t,u_1..u_n`` with full double precision."""
    n = states.shape[1]
    header = "t," + ",".join(f"u_{j + 1}" for j in range(n))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for t, row in zip(times, states):
            fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def _stage_function(model: NetworkModel, sm: SampledModel, hist: HistoryBuffer,
                    tail_tol: float, quad_step: float | None):
    """The right side ``stage(k, t, u)`` with coefficients from sample ``k``.

    ``k`` counts samples of ``sm`` and wraps around its length, so a model
    sampled over one period serves every period.  Delayed terms read
    ``hist``; densities are integrated with steps of at most ``quad_step``.
    """
    n = model.n
    mod = sm.t.shape[0]
    d, a, tau, inputs = sm.d, sm.a, sm.tau, sm.inputs
    atom_terms = [(i, j, s_loc, w) for i in range(n) for j in range(n)
                  for s_loc, w in sm.atoms[i][j]]
    density_terms = [(i, j, dens[0], dens[1]) for i in range(n) for j in range(n)
                     if (dens := sm.densities[i][j]) is not None]
    f_act = model.f
    g_act = model.g

    def stage(jh: int, t: float, u: np.ndarray) -> np.ndarray:
        idx = jh % mod
        gu = np.array([g_act[q](float(u[q])) for q in range(n)])
        du = -d[idx] * u + a[idx] @ gu + inputs[idx]
        for i, j, s_loc, w in atom_terms:
            wk = w[idx]
            if wk != 0.0:
                du[i] += wk * f_act[j](hist.lookup_scalar(t - tau[idx, i, j] - s_loc, j))
        for i, j, shape, bw in density_terms:
            b = bw[idx]
            if b != 0.0:
                base = t - tau[idx, i, j]
                ff = f_act[j]
                du[i] += b * density_quadrature(
                    shape, lambda s, jj=j, bb=base, f2=ff: f2(hist.lookup_scalar(bb - s, jj)),
                    tail_tol=tail_tol, step=quad_step)
        return du

    return stage, atom_terms, density_terms


def rhs(model: NetworkModel, t: float, u, history: HistoryBuffer,
        tail_tol: float = 1e-8, quad_step: float | None = None) -> np.ndarray:
    """Right side at time ``t`` with delayed lookups: one stage of :func:`simulate`."""
    stage, _, _ = _stage_function(model, SampledModel(model, [t]), history, tail_tol,
                                  quad_step)
    return stage(0, t, np.asarray(u, dtype=float))


def _exact_steps(total: float, h: float, what: str) -> int:
    k = total / h
    r = round(k)
    if abs(k - r) > 1e-9 * max(1.0, abs(k)):
        raise ValueError(f"{what}: {total} is not an integer multiple of h={h}")
    return int(r)


def simulate(model: NetworkModel, ic: InitialCondition, t_end: float, h: float,
             tail_tol: float = 1e-8) -> Trajectory:
    """Classical RK4 from time 0 with the dense history driving delays.

    ``h`` must divide the period exactly and ``t_end`` must be a multiple of
    ``h``.  Identical inputs produce bit-identical trajectories.
    """
    if h <= 0.0:
        raise ValueError("step must be positive")
    steps_per_period = _exact_steps(model.omega, h, "period")
    steps = _exact_steps(t_end, h, "t_end") if t_end > 0.0 else 0
    n = model.n
    hist = HistoryBuffer(ic, 0.0, h, n, capacity=steps + 1)
    sm = sampled(model, 2 * steps_per_period, 0.5 * h)
    stage, atom_terms, density_terms = _stage_function(model, sm, hist, tail_tol, h)
    min_lag = min([float(sm.tau[:, i, j].min()) + s_loc for i, j, s_loc, _ in atom_terms]
                  + [float(sm.tau[:, i, j].min()) for i, j, _, _ in density_terms],
                  default=math.inf)
    if 0.0 < min_lag < math.inf and h >= min_lag:
        # sub-step lookups will run on the extrapolant every step
        warnings.warn(f"step h={h} is not below the smallest delay {min_lag:.6g}; "
                      "intra-step lookups fall back to the Hermite extrapolant")

    u = np.asarray(ic.eval(0.0), dtype=float).copy()
    if u.shape != (n,):
        raise ValueError(f"initial condition has dimension {u.shape}, expected ({n},)")
    k1 = stage(0, 0.0, u)
    hist.append(u, k1)
    for m in range(steps):
        t0 = m * h
        t_half = t0 + 0.5 * h
        t1 = (m + 1) * h
        hist.horizon = t1
        with np.errstate(over="ignore", invalid="ignore"):
            k2 = stage(2 * m + 1, t_half, u + (0.5 * h) * k1)
            k3 = stage(2 * m + 1, t_half, u + (0.5 * h) * k2)
            k4 = stage(2 * m + 2, t1, u + h * k3)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(u)):
            raise DivergenceError(t1)
        hist.append(u, k4)  # provisional slope until the node is committed
        k1 = stage(2 * m + 2, t1, u)
        hist.set_last_derivative(k1)
    times = np.arange(steps + 1) * h
    return Trajectory(times=times, states=hist.values[: steps + 1].copy(), history=hist)


def convergence_order(model: NetworkModel, ic: InitialCondition, t_end: float,
                      k0: int = 32, window: tuple[float, float] | None = None,
                      tail_tol: float = 1e-8) -> float:
    """Richardson order estimate from runs at h, h/2, h/4.

    Compares states at shared nodes (optionally restricted to a window away
    from the initial breaking point) and returns log2 of the error ratio.
    """
    runs = [simulate(model, ic, t_end, model.omega / (k0 * 2 ** lev), tail_tol)
            for lev in range(3)]

    def sup_diff(coarse: Trajectory, fine: Trajectory) -> float:
        diff = np.abs(coarse.states - fine.states[::2]).max(axis=1)
        if window is not None:
            mask = (coarse.times >= window[0]) & (coarse.times <= window[1])
            diff = diff[mask]
        return float(diff.max())

    e01 = sup_diff(runs[0], runs[1])
    e12 = sup_diff(runs[1], runs[2])
    if e12 == 0.0:
        return math.inf
    return math.log2(e01 / e12)
