"""Shared model builders for the tests, and reference code that no command runs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from periodyn.certify import _ConditionGrid
from periodyn.expressions import PeriodicExpr, const
from periodyn.integrate import (HistoryBuffer, HistoryUnderrunError, Trajectory, _delayed_reads,
                                _ReadPlan, _stage_function, simulate)
from periodyn.kernels import TAIL_TOL, DelayKernel, Density, part_gain, part_mass, simpson_rule
from periodyn.model import Activation, InitialCondition, NetworkModel, SampledModel

ZERO = const(0.0)


def scalar_model(d, a=0.0, inputs=None, kernel=None, tau=None, omega=1.0,
                 g=None, f=None):
    """One-unit model with optional coupling, kernel, delay and input."""
    a_expr = a if isinstance(a, PeriodicExpr) else (const(a) if a else ZERO)
    return NetworkModel(
        n=1, omega=omega,
        d=(d if isinstance(d, PeriodicExpr) else const(d),),
        a=((a_expr,),),
        kernels=((kernel or DelayKernel(),),),
        tau=((tau or ZERO,),),
        inputs=(inputs or ZERO,),
        g=(g or Activation.tanh(),),
        f=(f or Activation.identity(),),
    )


def weighted_norms(states, xi):
    return np.max(np.abs(states) / np.asarray(xi)[None, :], axis=1)


# --- reference code that no command runs, kept as the tests' oracles ---------

# certify

def row_residual(model: NetworkModel, xi, t: float, i: int) -> float:
    """Left side of the dominance condition for row ``i`` at time ``t``."""
    xi = np.asarray(xi, dtype=float)
    sl = eval_coefficients(model, t)
    acc = -xi[i] * sl.d[i]
    for j in range(model.n):
        acc += xi[j] * model.g[j].lipschitz * abs(sl.a[i, j])
        acc += xi[j] * model.f[j].lipschitz * total_variation(model.kernels[i][j], t)
    return float(acc)


def mmatrix_weights(model: NetworkModel, grid_points: int = 4096,
                    alpha: float = 0.0) -> tuple[float, np.ndarray | None]:
    """Worst-case comparison-matrix route to candidate weights.

    Builds the sup-over-time gain matrix against the inf self-inhibition and
    returns (spectral_radius, xi) with xi a dominance witness when the radius
    is below one, else (spectral_radius, None).  Conservative: pointwise
    feasible models can fail this check.
    """
    cg = _ConditionGrid(model, grid_points)
    return _comparison_weights(cg.gain_matrix(alpha)[0], cg.sm.d, alpha)


def _comparison_weights(gain: np.ndarray, d: np.ndarray,
                        alpha: float) -> tuple[float, np.ndarray | None]:
    """:func:`mmatrix_weights` on the grid's gain tensor (*T, n, n) and self-inhibition (*T, n).

    The radius is the largest eigenvalue modulus: a cyclic comparison matrix
    has several eigenvalues of that modulus, where power iteration wanders.
    """
    P = gain.max(axis=0)
    delta = (d - alpha).min(axis=0)
    if np.any(delta <= 0.0) or not np.isfinite(P).all():
        return math.inf, None
    A = P / delta[:, None]
    rho = float(np.abs(np.linalg.eigvals(A)).max())
    if rho >= 1.0:
        return rho, None
    xi = np.linalg.solve(np.eye(A.shape[0]) - A, np.ones(A.shape[0]))
    xi /= xi.min()
    return rho, xi


# kernels

def total_variation_values(kernel: DelayKernel, t) -> np.ndarray:
    """Vectorized total variation over an array of times: the moment at alpha = 0."""
    return exp_moment_values(kernel, t, 0.0)[0]


def exp_moment_values(kernel: DelayKernel, t, alpha: float) -> tuple[np.ndarray, bool]:
    """Vectorized exponential moment (sum of :func:`part_gain`); flag False when it diverges."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for part in kernel.parts:
        mass, finite = part_mass(part, alpha)
        if not finite:
            return np.full_like(t, math.inf), False
        out += part_gain(part.weight.eval(t), mass)
    return out, True


@dataclass(frozen=True)
class KernelMoment:
    alpha: float
    value: float
    finite: bool


def total_variation(kernel: DelayKernel, t: float) -> float:
    """Aggregate absolute delayed gain at time ``t``."""
    return float(total_variation_values(kernel, np.asarray(t, dtype=float)))


def exp_moment(kernel: DelayKernel, t: float, alpha: float) -> KernelMoment:
    """Exponentially weighted absolute gain; divergence is flagged, not raised."""
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    values, finite = exp_moment_values(kernel, np.asarray(t, dtype=float), alpha)
    return KernelMoment(alpha=alpha, value=float(values), finite=finite)


def density_quadrature(shape: Density, lookup: Callable[[float], float],
                       tail_tol: float = TAIL_TOL, step: float | None = None) -> float:
    """Integral of ``density(s) * lookup(s)`` by :func:`simpson_rule`, one lookup per node."""
    nodes, weights = simpson_rule(shape, tail_tol, step)
    return float(weights @ np.array([lookup(float(s)) for s in nodes]))


def convolve(
    kernel: DelayKernel,
    t: float,
    lookup: Callable[[float], float],
    tail_tol: float = TAIL_TOL,
    step: float | None = None,
) -> float:
    """Integrate ``lookup`` against the kernel measure at time ``t``.

    Atoms are evaluated exactly; the density part goes through
    :func:`density_quadrature` weighted by the density's time coefficient.
    """
    acc = 0.0
    for atom in kernel.atoms:
        w = atom.weight.eval(t)
        if w != 0.0:
            acc += w * lookup(atom.s)
    if kernel.density is not None:
        b = kernel.density.weight.eval(t)
        if b != 0.0:
            acc += b * density_quadrature(kernel.density.shape, lookup, tail_tol, step)
    return float(acc)


# integrate

def _check_horizon(buf: HistoryBuffer, t_max: float) -> None:
    """Raise past the last node, or past ``buf.horizon`` where a test sets one."""
    if t_max > max(buf.last_time, getattr(buf, "horizon", buf.start_time)) + 1e-9 * buf.h:
        raise HistoryUnderrunError(
            f"lookup at t={float(t_max)!r} beyond history end {buf.last_time!r}")


def _locate(buf: HistoryBuffer, t):
    """Row and offset of ``t`` (scalar or array), without the horizon check."""
    x = np.maximum((t - buf.start_time) / buf.h, 1.0 - buf.base)
    k = np.minimum(np.floor(x), max(buf.count - 2, 0))
    # the run's node 0 sits one row after the initial block's node at the start
    return k.astype(np.intp) + (buf.base - (x <= 0.0)), x - k


def lookup_batch(buf: HistoryBuffer, times: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Unit ``cols[k]`` of the history at ``times[k]`` for every k, in one gather."""
    if times.size:
        _check_horizon(buf, times.max())
    flat = cols * buf._cap  # each unit's offset in the unit-major storage
    row, theta = _locate(buf, times)
    out = buf._value(row + flat, theta)
    if buf.count <= 1:  # one node: a first-order Taylor step after the start
        node = buf.base + flat
        v, m = buf._flat
        out = np.where(times > buf.start_time,
                       v[node] + (times - buf.start_time) * m[node], out)
    return out


def lookup_scalar(buf: HistoryBuffer, t: float, j: int) -> float:
    return float(lookup_batch(buf, np.array([t]), np.array([j]))[0])


def lookup(buf: HistoryBuffer, t: float) -> np.ndarray:
    return lookup_batch(buf, np.full(buf.n, t), np.arange(buf.n))


def derivative(buf: HistoryBuffer, t: float) -> np.ndarray:
    """Slope at ``t``; zero before the first node, the node slope while there is one node."""
    _check_horizon(buf, t)
    flat = np.arange(buf.n) * buf._cap
    if buf.count <= 1 and t > buf.start_time:
        return buf._flat[1][buf.base + flat]
    if t < buf.start_time - (buf.base - 1) * buf.h:
        return np.zeros(buf.n)
    row, theta = _locate(buf, t)
    return buf._slope(row + flat, theta)


def rhs(model: NetworkModel, t: float, u, history: HistoryBuffer,
        quad_step: float | None = None) -> np.ndarray:
    """Right side at time ``t`` with delayed lookups: one stage of :func:`simulate`.

    The stage is anchored at the newest node of ``history`` on a plan of one sample.
    Density nodes are ``quad_step`` apart, by default ``history.h`` as in :func:`simulate`.
    """
    sm = SampledModel(model, [t])
    h = history.h
    node = max(history.count - 1, 0)
    plan = _ReadPlan(sm, _delayed_reads(sm, TAIL_TOL, h if quad_step is None else quad_step), h,
                     [(t - history.start_time) / h - node])
    _check_horizon(history, history.start_time + (node + float(plan.latest[0])) * h)
    stage, delayed = _stage_function(plan, history)
    return stage(0, np.asarray(u, dtype=float), delayed(2 * node))


def convergence_order(model: NetworkModel, ic: InitialCondition, t_end: float,
                      k0: int = 32, window: tuple[float, float] | None = None) -> float:
    """Richardson order estimate from runs at h, h/2, h/4.

    Compares states at shared nodes (optionally restricted to a window away
    from the initial breaking point) and returns log2 of the error ratio.
    """
    runs = [simulate(model, ic, t_end, model.omega / (k0 * 2 ** lev)) for lev in range(3)]

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


# model

def eval_coefficients(model: NetworkModel, t: float) -> SampledModel:
    """Evaluate all coefficient expressions at one time; pure and deterministic."""
    return SampledModel(model, float(t))
