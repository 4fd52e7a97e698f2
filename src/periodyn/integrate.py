"""Fixed-step RK4 for the delayed network with dense-output history.

The step is fixed at an exact divisor of the period so the period map is
exact on nodes.  Node values and derivatives feed a cubic Hermite continuous
extension used for all delayed lookups.  The initial history is a leading
block of nodes in the same storage: a constant history is one node, a
sampled history on the same step keeps its own nodes, and any other history
is sampled onto the step grid back to the read plan's reach.  One locate
rule then serves every time from before the start up to the horizon.

Each stage reads all its delayed terms -- every atom and every Simpson node
of every density -- through a read plan.  The step divides the period and
every coefficient has the period, so each read lies at the same place
relative to its stage's node in every period.  The plan, built once per
model, step and tail tolerance, holds per half-step sample where each
kernel part's first read lies and each part's weight; the other Simpson
nodes of a density trail its first read by fixed lags, so the plan grows
with the samples times the parts.  A stage then places its reads with one
subtract and one ceil, gathers their interval ends, forms the Hermite blend
(the history's own), calls each distinct activation once and sums with
``np.bincount``.  Reads at or before the start shift into the initial
block, reads before its first node return it unchanged, and while the run
has one node reads past it take its Taylor step.  The delayed terms read
only the history, never the current state, so the two midpoint stages of a
step share one sum, and the next step's first stage reuses the last stage's
sum unless one of its reads lies in the step just taken.  Stage reads that
land inside the current step (delays shorter than the step) evaluate the
newest Hermite cubic beyond its interval instead of solving implicit stage
equations.  Coefficient expressions are cached over one period at half-step
resolution, which also makes the periodicity of the flow exact in floating
point.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import TAIL_TOL, Atom, simpson_rule
from .model import (ConstantIC, HermiteNodes, InitialCondition, NetworkModel, SampledIC,
                    SampledModel, _read_only, sampled)


class HistoryUnderrunError(RuntimeError):
    """A delayed lookup needed times beyond the represented history."""


class StepTooSmallError(ValueError):
    """One period of half steps is too many samples to hold in memory."""


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
    and a lookup past the last node (past ``horizon``, which is ``start_time``,
    while the run has no node) raises.  Run stages read past the newest node
    through the clamp in ``read`` of :func:`_stage_function`, which
    extrapolates the newest cubic.  ``lag`` is how far before ``start_time``
    an initial history that is not already on the grid gets sampled.

    ``values`` and ``derivs`` are (rows, n) views from the run's node 0.  The
    storage is unit-major, so one flat gather reads any mix of units.
    """

    def __init__(self, ic: InitialCondition, start_time: float, h: float, n: int,
                 capacity: int = 64, lag: float = 0.0):
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
        self._flat = v, m = values.reshape(-1), derivs.reshape(-1)
        self._next = v[1:], m[1:]
        self._cap = values.shape[1]

    def _ends(self, flat, col=None):
        # unit-major storage: ``flat`` is row + unit * capacity and already
        # holds the unit, and a unit's next node is the next flat entry
        v, m = self._flat
        v1, m1 = self._next
        return v[flat], v1[flat], m[flat], m1[flat]

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

    def lookup_batch(self, times: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Unit ``cols[k]`` of the history at ``times[k]`` for every k, in one gather."""
        if times.size:
            self._check_horizon(times.max())
        flat = cols * self._cap  # each unit's offset in the unit-major storage
        row, theta = self._locate(times)
        out = self._value(row + flat, theta)
        if self.count <= 1:  # one node: a first-order Taylor step after the start
            node = self.base + flat
            v, m = self._flat
            out = np.where(times > self.start_time,
                           v[node] + (times - self.start_time) * m[node], out)
        return out

    def lookup_scalar(self, t: float, j: int) -> float:
        return float(self.lookup_batch(np.array([t]), np.array([j]))[0])

    def lookup(self, t: float) -> np.ndarray:
        return self.lookup_batch(np.full(self.n, t), self._units)

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


def _delayed_reads(sm: SampledModel, tail_tol: float, quad_step: float) -> _DelayedReads:
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


class _ReadPlan:
    """Every delayed read of every sample of ``sm``, placed relative to its stage's node.

    The reads of one kernel part (an atom, or the Simpson nodes of one
    density) share a delay and a weight.  The stage of sample r is anchored
    at a node, and read k of part p lies ``anchor[r, p] - steps[k]`` steps
    after that node: ``anchor`` places the part's first read and ``steps``
    holds each read's fixed lag behind it, in steps (0 for an atom).  A
    stage locates its reads from these with one subtract and one ceil, so
    the tables grow with the samples times the parts, not with the Simpson
    nodes.  ``latest[r]`` is the position of sample r's latest read and
    ``low[r]`` bounds the interval of its earliest.
    """

    def __init__(self, sm: SampledModel, reads: _DelayedReads, h: float, offsets):
        model = sm.model
        offsets = np.asarray(offsets, dtype=float)
        parts = sm.kernel_weights.shape[1]
        first = np.searchsorted(reads.col, np.arange(parts))  # reads of a part are adjacent
        last = np.searchsorted(reads.col, np.arange(parts), side="right") - 1
        part_lag = reads.lag[first]
        tau = sm.tau.reshape(-1, model.n * model.n)[:offsets.size, reads.pair[first]]
        self.anchor = _read_only(offsets[:, None] - (tau + part_lag) / h)
        self.steps = (reads.lag - part_lag[reads.col]) / h  # Simpson nodes run from lag 0 up
        self.sm, self.h, self.col, self.src, self.scale = sm, h, reads.col, reads.src, reads.scale
        self.part_dst = reads.dst[first]
        self.f_act = _elementwise(model.f, reads.src)
        self.latest = self.anchor.max(axis=1, initial=-math.inf)
        earliest = (self.anchor - self.steps[last]).min(axis=1, initial=math.inf)
        self.low = np.minimum(np.ceil(earliest) - 1.0, -2.0).astype(int).tolist()
        lags = sm.tau.min(axis=0).reshape(-1)[reads.pair] + reads.lag
        self.min_lag = float(lags.min(initial=math.inf))
        self.max_lag = float((sm.tau.max(axis=0).reshape(-1)[reads.pair]
                              + reads.lag).max(initial=0.0))


@functools.lru_cache(maxsize=4)
def _period_plan(model: NetworkModel, h: float, tail_tol: float, samples: int) -> _ReadPlan:
    """The read plan of a period's first ``samples`` half steps.

    Sample r belongs to half step r and is anchored at node ``r // 2``; the
    period map runs every iteration on the same plan of a whole period.
    """
    period = _exact_steps(model.omega, h, "period")
    try:
        sm = sampled(model, 2 * period, 0.5 * h)
    except (MemoryError, ValueError):  # numpy refuses a count past its largest array
        raise StepTooSmallError(f"step h={h} is too small: one period is {period:.3g} steps, "
                                "too many to sample in memory") from None
    half = np.arange(samples) % 2
    plan = _ReadPlan(sm, _delayed_reads(sm, tail_tol, h), h, half * 0.5)
    # the history reaches the midpoint's step end, and the node at the other stages
    ahead = plan.latest - (half + 1e-9)
    if (ahead > 0.0).any():
        r = int(np.argmax(ahead))
        read = (r // 2 + float(plan.latest[r])) * h
        raise HistoryUnderrunError(
            f"the stage at t={float(sm.t[r])!r} reads t={read!r}, past the history")
    return plan


def _stage_function(plan: _ReadPlan, hist: HistoryBuffer):
    """The right side as ``stage(jh, u, delayed(jh))``, coefficients from sample ``jh``.

    ``jh`` counts half steps: sample ``jh`` wraps around the period, so a
    plan of one period serves every period, and the stage is anchored
    at node ``jh // 2``.  ``delayed`` sums the delayed terms from ``hist``
    in one gather and one blend, per kernel part and then per unit; they
    depend on the time and the history but not on ``u``, so stages at one
    time and one history can share them.
    """
    sm = plan.sm
    n = sm.model.n
    mod, parts = sm.kernel_weights.shape
    neg_d, a, inputs, weights = -sm.d, sm.a, sm.inputs, sm.kernel_weights
    g_act = _elementwise(sm.model.g, range(n))
    f_act, col, scale, part_dst = plan.f_act, plan.col, plan.scale, plan.part_dst
    anchor, steps, low, h = plan.anchor, plan.steps, plan.low, plan.h
    base = hist.base
    units = {}  # storage capacity -> each read's flat index of the run's node 0

    def read(r: int, node: int) -> np.ndarray:
        count = hist.count
        unit = units.get(hist._cap)
        if unit is None:
            unit = units[hist._cap] = plan.src * hist._cap + base
        pos = anchor[r][col]
        pos -= steps
        # the interval each read lies in at an offset in (0, 1], clamped to the
        # newest one so that later reads extrapolate the newest cubic; RK4's
        # last stage reads before its node is appended, so there that is -2
        rel = np.ceil(pos)
        rel -= 1.0
        np.minimum(rel, -2.0 if 1 < count <= node else -1.0, out=rel)
        basis = hist._basis(pos - rel)
        rr = rel.astype(np.intp)
        rr += node  # interval rows counted from the run's node 0
        rows = rr + unit
        before = None
        if node + low[r] < 0:
            # at or before the start: the initial block, whose last node is the start
            rows -= rr < 0
            if node + low[r] < 1 - base:  # before its first node: constant
                before = rr < 1 - base
                rows[before] = unit[before] - base
        ends = hist._ends(rows)
        out = hist._blend(ends, basis)
        if before is not None:
            out[before] = ends[0][before]
        if count == 1:  # one node: a first-order Taylor step past the start
            x = pos + node
            ahead = x > 0.0
            flat = unit[ahead]
            v, m = hist._flat
            out[ahead] = v[flat] + (x[ahead] * h) * m[flat]
        return out

    def delayed(jh: int) -> np.ndarray:
        r = jh % mod
        terms = np.bincount(col, weights=scale * f_act(read(r, jh // 2)), minlength=parts)
        return np.bincount(part_dst, weights=terms * weights[r], minlength=n)

    def stage(jh: int, u: np.ndarray, du_delayed: np.ndarray) -> np.ndarray:
        idx = jh % mod
        return neg_d[idx] * u + a[idx] @ g_act(u) + inputs[idx] + du_delayed

    return stage, delayed


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
    history._check_horizon(history.start_time + (node + float(plan.latest[0])) * h)
    stage, delayed = _stage_function(plan, history)
    return stage(0, np.asarray(u, dtype=float), delayed(2 * node))


def _exact_steps(total: float, h: float, what: str) -> int:
    k = total / h
    r = round(k)
    if abs(k - r) > 1e-9 * max(1.0, abs(k)):
        raise ValueError(f"{what}: {total} is not an integer multiple of h={h}")
    return int(r)


def simulate(model: NetworkModel, ic: InitialCondition, t_end: float, h: float,
             tail_tol: float = TAIL_TOL) -> Trajectory:
    """Classical RK4 from time 0 with the dense history driving delays.

    ``h`` must divide the period exactly and ``t_end`` must be a multiple of
    ``h``.  Identical inputs produce bit-identical trajectories.
    """
    if not h > 0.0:
        raise ValueError("step must be positive")
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"t_end must be a finite time >= 0, got {t_end}")
    period = _exact_steps(model.omega, h, "period")
    if period < 1:
        raise ValueError(f"step h={h} is longer than the period omega={model.omega}")
    steps = _exact_steps(t_end, h, "t_end")
    n = model.n
    u = np.asarray(ic.eval(0.0), dtype=float).copy()
    if u.shape != (n,):
        raise ValueError(f"initial condition has dimension {u.shape}, expected ({n},)")
    plan = _period_plan(model, h, tail_tol, min(2 * period, 2 * steps + 1))
    if 0.0 < plan.min_lag < math.inf and h >= plan.min_lag:
        # sub-step lookups will run on the extrapolant every step
        warnings.warn(f"step h={h} is not below the smallest delay {plan.min_lag:.6g}; "
                      "intra-step lookups fall back to the Hermite extrapolant")
    hist = HistoryBuffer(ic, 0.0, h, n, capacity=steps + 1, lag=plan.max_lag)
    stage, delayed = _stage_function(plan, hist)
    near = (plan.latest > -1.0).tolist()  # some read lies less than a step before the node
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = stage(0, u, delayed(0))
        hist.append(u, k1)
        for m in range(steps):
            jh = 2 * m
            mid = delayed(jh + 1)  # k2 and k3 read the same history
            k2 = stage(jh + 1, u + (0.5 * h) * k1, mid)
            k3 = stage(jh + 1, u + (0.5 * h) * k2, mid)
            end = delayed(jh + 2)
            k4 = stage(jh + 2, u + h * k3, end)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(u).all():
                raise DivergenceError((m + 1) * h)
            hist.append(u, k4)  # provisional slope until the node is committed
            if near[(jh + 2) % len(near)]:  # some reads lie in the step just taken
                end = delayed(jh + 2)
            k1 = stage(jh + 2, u, end)
            hist.set_last_derivative(k1)
    times = np.arange(steps + 1) * h
    return Trajectory(times=times, states=hist.values[: steps + 1].copy(), history=hist)


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
