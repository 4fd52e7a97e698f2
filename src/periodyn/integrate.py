"""Fixed-step RK4 for the delayed network with dense-output history.

The step is fixed at an exact divisor of the period so the period map is
exact on nodes.  Node values and derivatives feed a cubic Hermite continuous
extension used for all delayed lookups.  The initial history is a leading
block of nodes in the same storage: a constant history is one node, a
sampled history on the same step keeps its own nodes, and any other history
is sampled onto the step grid back to the model's largest lag.  One locate
rule then serves every time from before the start up to the horizon.

Each stage reads all its delayed terms -- every atom and every Simpson node
of every density -- in one array lookup, applies each distinct activation
once and adds the weighted terms onto their units with ``np.bincount``.
The delayed terms read only the history, never the current state, so the
two midpoint stages of a step share one lookup.  Stage lookups that land
inside the current step (delays shorter than the step) evaluate the newest
Hermite cubic beyond its interval instead of solving implicit stage
equations.  Coefficient expressions are cached over one period at half-step
resolution, which also makes the periodicity of the flow exact in floating
point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import Atom, simpson_rule
from .model import (ConstantIC, HermiteNodes, InitialCondition, NetworkModel, SampledIC,
                    SampledModel, sampled)


class HistoryUnderrunError(RuntimeError):
    """A delayed lookup needed times beyond the represented history."""


class DivergenceError(RuntimeError):
    def __init__(self, t: float):
        super().__init__(f"state became nonfinite at t={t:.6g}")
        self.t = t


def _initial_nodes(ic: InitialCondition, start: float, h: float,
                   lag: float) -> tuple[np.ndarray, np.ndarray]:
    """The initial history as (values, derivs) nodes on the step grid ending at ``start``.

    A constant history is a single node, which the constant rule before the
    first node returns exactly; a cubic blend of two equal nodes can miss
    the constant in the last bit.
    """
    if isinstance(ic, ConstantIC):
        return np.array([ic.values]), np.zeros((1, ic.n))
    if isinstance(ic, SampledIC) and ic.step == h and abs(ic.end - start) <= 1e-9 * h:
        return ic.values, ic.derivs
    times = start + np.arange(-(math.ceil(lag / h) + 1), 1) * h
    values = np.array([ic.eval(float(t)) for t in times])
    derivs = np.array([[ic.derivative_component(float(t), j) for j in range(ic.n)]
                       for t in times])
    return values, derivs


class HistoryBuffer(HermiteNodes):
    """Hermite nodes of the initial history followed by the run's nodes.

    The first ``base`` rows hold the initial history on the step grid, the
    last of them at ``start_time`` with the history's slope; the run's node 0
    follows at the same time with the run's slope.  Times at or before
    ``start_time`` therefore read the initial block and later times the run,
    through one locate rule: the history is constant before its first node,
    the newest cubic serves times up to ``horizon`` just past the last node,
    and anything later raises.  ``lag`` is how far before ``start_time`` an
    initial history that is not already on the grid gets sampled.

    ``values`` and ``derivs`` are (rows, n) views from the run's node 0.  The
    storage is unit-major, so one flat gather reads any mix of units.
    """

    def __init__(self, ic: InitialCondition, start_time: float, h: float, n: int,
                 capacity: int = 64, lag: float = 0.0):
        self.ic = ic
        self.start_time = float(start_time)
        self.h = self.step = float(h)  # the Hermite base reads ``step``
        self.n = int(n)
        ic_values, ic_derivs = _initial_nodes(ic, self.start_time, self.h, lag)
        self.base = ic_values.shape[0]
        self.count = 0
        self.horizon = self.start_time
        self._units = np.arange(self.n)
        values = np.zeros((self.n, self.base + max(capacity, 2)))
        derivs = np.zeros_like(values)
        values[:, :self.base] = ic_values.T
        derivs[:, :self.base] = ic_derivs.T
        self._store(values, derivs)

    def _store(self, values: np.ndarray, derivs: np.ndarray) -> None:
        self._v, self._d = values, derivs
        self._flat = (values.reshape(-1), derivs.reshape(-1))
        self._cap = values.shape[1]

    def _ends(self, flat, col=None):
        # unit-major storage: ``flat`` is row + unit * capacity and already
        # holds the unit, and a unit's next node is the next flat entry
        v, m = self._flat
        nxt = flat + 1
        return v[flat], v[nxt], m[flat], m[nxt]

    @property
    def values(self) -> np.ndarray:
        return self._v[:, self.base:].T

    @property
    def derivs(self) -> np.ndarray:
        return self._d[:, self.base:].T

    @property
    def last_time(self) -> float:
        return self.start_time + (self.count - 1) * self.h

    def append(self, u: np.ndarray, du: np.ndarray) -> None:
        row = self.base + self.count
        if row == self._cap:
            self._store(np.concatenate([self._v, np.zeros_like(self._v)], axis=1),
                        np.concatenate([self._d, np.zeros_like(self._d)], axis=1))
        self._v[:, row] = u
        self._d[:, row] = du
        self.count += 1

    def set_last_derivative(self, du: np.ndarray) -> None:
        self._d[:, self.base + self.count - 1] = du

    def _check_horizon(self, t_max: float) -> None:
        if t_max > max(self.last_time, self.horizon) + 1e-9 * self.h:
            raise HistoryUnderrunError(
                f"lookup at t={float(t_max)!r} beyond history end {self.last_time!r}")

    def _locate(self, t):
        """Row and offset of ``t`` (scalar or array), without the horizon check."""
        x = np.maximum((t - self.start_time) / self.h, 1.0 - self.base)
        k = np.minimum(np.floor(x), max(self.count - 2, 0))
        # the run's node 0 sits one row after the initial block's node at the start
        return k.astype(np.intp) + (self.base - (x <= 0.0)), x - k

    def _lookup(self, t, flat):
        """History at ``t`` for the unit offsets ``flat`` (``unit * capacity``)."""
        row, theta = self._locate(t)
        out = self._value(row + flat, theta)
        if self.count <= 1:  # one node: a first-order Taylor step after the start
            node = self.base + flat
            v, m = self._flat
            out = np.where(t > self.start_time, v[node] + (t - self.start_time) * m[node], out)
        return out

    def lookup_batch(self, times: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Unit ``cols[k]`` of the history at ``times[k]`` for every k, in one gather."""
        if times.size:
            self._check_horizon(times.max())
        return self._lookup(times, cols * self._cap)

    def lookup_scalar(self, t: float, j: int) -> float:
        self._check_horizon(t)
        return float(self._lookup(t, j * self._cap))

    def lookup(self, t: float) -> np.ndarray:
        self._check_horizon(t)
        return self._lookup(t, self._units * self._cap)

    def derivative(self, t: float) -> np.ndarray:
        """Slope at ``t``; zero before the first node, the node slope while there is one node."""
        self._check_horizon(t)
        flat = self._units * self._cap
        if self.count <= 1 and t > self.start_time:
            return self._flat[1][self.base + flat]
        if t < self.start_time - (self.base - 1) * self.h:
            return np.zeros(self.n)
        row, theta = self._locate(t)
        return self._slope(row + flat, theta)

    def window(self, steps: int) -> SampledIC:
        """Copy of the newest ``steps`` steps, re-based to end at time 0.

        Nodes before the start come from the initial block; before its first
        node the history is constant with zero slope.
        """
        first = self.count - 1 - steps
        lo = self.base - 1 + min(first, 0)  # block row of the earliest node before the start
        pad = max(-lo, 0)
        before = slice(max(lo, 0), self.base - 1)
        run = slice(self.base + max(first, 0), self.base + self.count)
        values = np.concatenate([np.repeat(self._v[:, :1], pad, axis=1),
                                 self._v[:, before], self._v[:, run]], axis=1)
        derivs = np.concatenate([np.zeros((self.n, pad)), self._d[:, before], self._d[:, run]],
                                axis=1)
        return SampledIC(start=-steps * self.h, step=self.h,
                         values=np.ascontiguousarray(values.T),
                         derivs=np.ascontiguousarray(derivs.T))


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


class _DelayedReads(NamedTuple):
    """Every delayed read of a stage, one entry per atom and per Simpson node.

    Entry k reads unit ``src[k]`` at ``t - tau[pair[k]] - lag[k]`` and adds
    ``kernel_weights[col[k]] * scale[k]`` times its activation to unit
    ``dst[k]``; ``pair`` indexes the flattened (i, j) delay.
    """

    dst: np.ndarray
    src: np.ndarray
    pair: np.ndarray
    col: np.ndarray
    lag: np.ndarray
    scale: np.ndarray


def _delayed_reads(sm: SampledModel, tail_tol: float, quad_step: float | None) -> _DelayedReads:
    dst, src, col, lag, scale = [], [], [], [], []
    for k, (i, j, part) in enumerate(sm.kernel_parts):
        if isinstance(part, Atom):
            nodes, weights = [part.s], [1.0]
        else:
            nodes, weights = simpson_rule(part.shape, tail_tol, quad_step)
        dst += [i] * len(nodes)
        src += [j] * len(nodes)
        col += [k] * len(nodes)
        lag.extend(nodes)
        scale.extend(weights)
    dst, src = np.array(dst, dtype=np.intp), np.array(src, dtype=np.intp)
    return _DelayedReads(dst, src, dst * sm.model.n + src, np.array(col, dtype=np.intp),
                         np.array(lag, dtype=float), np.array(scale, dtype=float))


def _elementwise(acts, units):
    """Apply ``acts[units[k]]`` to entry k of an array, one call per distinct activation."""
    groups: dict = {}
    for k, q in enumerate(units):
        groups.setdefault(acts[q], []).append(k)
    if len(groups) == 1:
        return next(iter(groups))
    index = [(act, np.array(pos, dtype=np.intp)) for act, pos in groups.items()]

    def apply(x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        for act, pos in index:
            out[pos] = act(x[pos])
        return out

    return apply


def _stage_function(sm: SampledModel, hist: HistoryBuffer, reads: _DelayedReads):
    """The right side as ``stage(k, t, u, delayed(k, t))``, coefficients from sample ``k``.

    ``k`` counts samples of ``sm`` and wraps around its length, so a model
    sampled over one period serves every period.  ``delayed`` sums the
    delayed terms ``reads``, all looked up in ``hist`` at once; they depend
    on the time and the history but not on ``u``, so stages at one time and
    one history can share them.
    """
    model = sm.model
    n = model.n
    mod = sm.t.shape[0]
    d, a, inputs, weights = sm.d, sm.a, sm.inputs, sm.kernel_weights
    tau = sm.tau.reshape(mod, n * n)
    dst, src, pair, col, lag, scale = reads
    g_act = _elementwise(model.g, range(n))
    f_act = _elementwise(model.f, src)

    def delayed(jh: int, t: float) -> np.ndarray:
        idx = jh % mod
        values = f_act(hist.lookup_batch((t - tau[idx][pair]) - lag, src))
        return np.bincount(dst, weights=weights[idx][col] * scale * values, minlength=n)

    def stage(jh: int, t: float, u: np.ndarray, du_delayed: np.ndarray) -> np.ndarray:
        idx = jh % mod
        return -d[idx] * u + a[idx] @ g_act(u) + inputs[idx] + du_delayed

    return stage, delayed


def rhs(model: NetworkModel, t: float, u, history: HistoryBuffer,
        tail_tol: float = 1e-8, quad_step: float | None = None) -> np.ndarray:
    """Right side at time ``t`` with delayed lookups: one stage of :func:`simulate`."""
    sm = SampledModel(model, [t])
    stage, delayed = _stage_function(sm, history, _delayed_reads(sm, tail_tol, quad_step))
    return stage(0, t, np.asarray(u, dtype=float), delayed(0, t))


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
    if not h > 0.0:
        raise ValueError("step must be positive")
    steps_per_period = _exact_steps(model.omega, h, "period")
    if steps_per_period < 1:
        raise ValueError(f"step h={h} is longer than the period omega={model.omega}")
    steps = _exact_steps(t_end, h, "t_end") if t_end > 0.0 else 0
    n = model.n
    u = np.asarray(ic.eval(0.0), dtype=float).copy()
    if u.shape != (n,):
        raise ValueError(f"initial condition has dimension {u.shape}, expected ({n},)")
    sm = sampled(model, 2 * steps_per_period, 0.5 * h)
    reads = _delayed_reads(sm, tail_tol, h)
    tau = sm.tau.reshape(sm.t.shape[0], n * n)
    min_lag = float((tau.min(axis=0)[reads.pair] + reads.lag).min(initial=math.inf))
    if 0.0 < min_lag < math.inf and h >= min_lag:
        # sub-step lookups will run on the extrapolant every step
        warnings.warn(f"step h={h} is not below the smallest delay {min_lag:.6g}; "
                      "intra-step lookups fall back to the Hermite extrapolant")
    max_lag = float((tau.max(axis=0)[reads.pair] + reads.lag).max(initial=0.0))
    hist = HistoryBuffer(ic, 0.0, h, n, capacity=steps + 1, lag=max_lag)
    stage, delayed = _stage_function(sm, hist, reads)

    k1 = stage(0, 0.0, u, delayed(0, 0.0))
    hist.append(u, k1)
    for m in range(steps):
        t0 = m * h
        t_half = t0 + 0.5 * h
        t1 = (m + 1) * h
        hist.horizon = t1
        with np.errstate(over="ignore", invalid="ignore"):
            mid = delayed(2 * m + 1, t_half)  # k2 and k3 read the same history
            k2 = stage(2 * m + 1, t_half, u + (0.5 * h) * k1, mid)
            k3 = stage(2 * m + 1, t_half, u + (0.5 * h) * k2, mid)
            k4 = stage(2 * m + 2, t1, u + h * k3, delayed(2 * m + 2, t1))
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(u).all():
            raise DivergenceError(t1)
        hist.append(u, k4)  # provisional slope until the node is committed
        k1 = stage(2 * m + 2, t1, u, delayed(2 * m + 2, t1))
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
