"""Fixed-step RK4 for the delayed network with dense-output history.

The step is fixed at an exact divisor of the period so the period map is
exact on nodes.  Node values and derivatives feed a cubic Hermite continuous
extension used for all delayed lookups.  The initial history is a leading
block of nodes in the same storage.  A history is a ``ConstantIC``, one
node, or a ``SampledIC``: on the same step it keeps its own nodes, and off
the step grid it is read at the grid times back to the read plan's reach
through its own cubics, in one call.  One locate rule then serves every
time, before the start and after it.

Each stage reads all its delayed terms -- every atom and every Simpson node
of every density -- through a read plan.  The step divides the period and
every coefficient has the period, so each read lies at the same place
relative to its stage's node in every period.  The plan, built once per
model, step and tail tolerance, holds per half-step sample where each
kernel part's first read lies and each part's weight; the other Simpson
nodes of a density trail its first read by fixed lags.  The delayed terms
read only the history, never the current state, so by the method of steps
(Bellen & Zennaro, *Numerical Methods for Delay Differential Equations*,
2003, ch. 3) the steps from a node whose reads all lie in stored nodes
share one read, and so do a step's own stages otherwise.  A read places
the reads of its samples with one subtract and one ceil, gathers their
interval ends, forms the Hermite blend (the history's own), calls each
distinct activation once and sums per sample with ``np.bincount``.  Reads
at or before the start shift into the initial block, reads before its
first node return it unchanged, and while the run has one node reads past
it take its Taylor step.  The next step's first stage reuses the last
stage's sum unless one of its reads lies in the step just taken.  Stage
reads that land inside the current step (delays shorter than the step)
evaluate the newest Hermite cubic beyond its interval instead of solving
implicit stage equations.  Coefficient expressions are cached over one
period at half-step resolution, which also makes the periodicity of the
flow exact in floating point.
"""

from __future__ import annotations

import contextlib
import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .expressions import _BLOCK_VALUES
from .kernels import TAIL_TOL, Atom, simpson_rule
from .model import (ACTIVATIONS, ConstantIC, HermiteNodes, InitialCondition, NetworkModel,
                    SampledIC, SampledModel, TooLargeError, _read_only, holding, sampled)


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
    the constant in the last bit.  A sampled history on the step ending at
    ``start`` keeps its nodes; any other is read at the grid times back to
    ``lag`` through its own cubics in one call, flat before its first node.
    """
    if isinstance(ic, ConstantIC):
        return np.array([ic.values]), np.zeros((1, ic.n))
    if ic.step == h and abs(ic.end - start) <= 1e-9 * h:
        return ic.values, ic.derivs
    times = start + np.arange(-(math.ceil(lag / h) + 1), 1) * h
    idx, theta = ic._locate(times)
    theta = theta[:, None]
    return ic._value(idx, theta), np.where(times[:, None] > ic.start, ic._slope(idx, theta), 0.0)


class HistoryBuffer(HermiteNodes):
    """Hermite nodes of the initial history followed by the run's nodes.

    The first ``base`` rows hold the initial history on the step grid, the
    last of them at ``start_time`` with the history's slope; the run's node 0
    follows at the same time with the run's slope.  Times at or before
    ``start_time`` therefore read the initial block and later times the run,
    through one locate rule: the history is constant before its first node.
    Run stages read past the newest node through the clamp in ``read`` of
    :func:`_stage_function`, which extrapolates the newest cubic.  ``lag`` is
    how far before ``start_time`` an initial history that is not already on
    the grid gets sampled.

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


def _delayed_reads(sm: SampledModel, quad_step: float) -> _DelayedReads:
    col, lag, scale = [], [], []
    for k, (i, j, part) in enumerate(sm.kernel_index.parts):
        atom = isinstance(part, Atom)
        # a density reads at Simpson nodes quad_step apart over its support
        with contextlib.nullcontext() if atom else holding(
                f"kernels[{i}][{j}].density", f"its support of {part.shape.cutoff(TAIL_TOL):.3g}, "
                f"read every {quad_step:g}, needs too many reads to hold in memory"):
            nodes, weights = ([part.s], [1.0]) if atom else simpson_rule(part.shape, step=quad_step)
            col += [k] * len(nodes)
            lag.extend(nodes)
            scale.extend(weights)
    pair = sm.kernel_index.pair[col]
    return _DelayedReads(*np.divmod(pair, sm.model.n), pair, np.array(col, dtype=np.intp),
                         np.array(lag, dtype=float), np.array(scale, dtype=float))


def _elementwise(acts, units):
    """Apply ``acts[units[k]]`` to entry k of an array's last axis, one call per kind.

    A table activation is its numpy function, without a Python call to
    Activation.  With several kinds a ufunc kind (tanh, arctan: neither warns
    on any entry) makes the output from every entry, and each other ufunc
    kind overwrites its own entries in place under a per-unit mask.  A masked
    call costs more the more runs of one kind it crosses, so where the kinds
    change more than 32 times along the axis (the atoms of a wide network
    alternate read by read) each other kind is gathered and scattered
    instead, as is every kind that is not a ufunc.
    """
    fns = [ACTIVATIONS[acts[q].kind][0] if acts[q].kind in ACTIVATIONS else acts[q]
           for q in units]
    # ufuncs first, each in order of first use, never of hashes
    kinds = sorted(dict.fromkeys(fns), key=lambda fn: not isinstance(fn, np.ufunc))
    if len(kinds) == 1:
        return kinds[0]
    which = np.array([kinds.index(fn) for fn in fns], dtype=np.intp)
    first = kinds[0] if kinds and isinstance(kinds[0], np.ufunc) else np.empty_like
    long_runs = np.count_nonzero(np.diff(which)) <= 32
    masked = [(fn, which == k) for k, fn in enumerate(kinds)
              if fn is not first and long_runs and isinstance(fn, np.ufunc)]
    gathered = [(fn, np.flatnonzero(which == k)) for k, fn in enumerate(kinds)
                if fn is not first and not (long_runs and isinstance(fn, np.ufunc))]

    def apply(x: np.ndarray) -> np.ndarray:
        out = first(x)
        for fn, where in masked:
            fn(x, out=out, where=where)
        for fn, pos in gathered:
            out[..., pos] = fn(x[..., pos])
        return out

    return apply


class _ReadPlan:
    """Every delayed read of every sample of ``sm``, placed relative to its stage's node.

    The reads of one kernel part (an atom, or the Simpson nodes of one
    density) share a delay and a weight.  The stage of sample r is anchored
    at a node, and read k of part p lies ``anchor[r, p] - steps[k]`` steps
    after that node: ``anchor`` places the part's first read and ``steps``
    holds each read's fixed lag behind it, in steps (0 for an atom).  A
    read locates the reads of a block of samples from these with one
    subtract and one ceil, so the tables grow with the samples times the
    parts, not with the Simpson nodes.  ``latest[r]`` is the position of
    sample r's latest read, which bounds a block, and ``low[r]`` bounds the
    interval of its earliest.
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
        self.rows = list(zip(-sm.d, sm.a, sm.inputs))  # each sample's (-d, a, inputs) row views
        self.part_dst = reads.dst[first]
        self.f_act = _elementwise(model.f, reads.src)
        self.latest = self.anchor.max(axis=1, initial=-math.inf)
        earliest = (self.anchor - self.steps[last]).min(axis=1, initial=math.inf)
        # clamped to the intp range, which a delay of 1e302 steps overflows
        self.low = np.clip(np.ceil(earliest) - 1.0, np.iinfo(np.intp).min, -2.0).astype(np.intp)
        lags = sm.tau.min(axis=0).reshape(-1)[reads.pair] + reads.lag
        self.min_lag = float(lags.min(initial=math.inf))
        self.max_lag = float((sm.tau.max(axis=0).reshape(-1)[reads.pair]
                              + reads.lag).max(initial=0.0))


def _block_steps(latest: np.ndarray, width: int) -> list[int]:
    """Per node m of a period's plan, how many steps from m read only nodes up to m.

    Sample j reads up to node ``j // 2 + ceil(latest[j % latest.size])``.  A
    block of samples ``width`` values wide holds at most ``_BLOCK_VALUES``.
    """
    cap = max(1, _BLOCK_VALUES // (2 * width))
    nodes = (latest.size + 1) // 2
    j = np.arange(1, 2 * (nodes + cap) + 1)
    # sample j is out of reach from the nodes m before its own (2m < j) up to last[j]
    last = np.minimum(j // 2 + np.ceil(latest[j % latest.size]) - 1.0, (j - 1) // 2)
    first = np.full(nodes + cap, j[-1] + 1)  # the first sample out of reach at node m
    np.minimum.at(first, last[last >= 0.0].astype(np.intp), j[last >= 0.0])
    first = np.minimum.accumulate(first[::-1])[::-1]
    return np.minimum((first[:nodes] - 2 * np.arange(nodes) - 1) // 2, cap).tolist()


@functools.lru_cache(maxsize=4)
def _period_plan(model: NetworkModel, h: float, samples: int) -> _ReadPlan:
    """The read plan of a period's first ``samples`` half steps.

    Sample r belongs to half step r and is anchored at node ``r // 2``; the
    period map runs every iteration on the same plan of a whole period.
    """
    period = _exact_steps(model.omega, h, "period")
    with holding("--h", f"step h={h} is too small: one period is {period:.3g} steps, "
                 "too many to sample in memory"):
        sm = sampled(model, 2 * period, 0.5 * h)
    half = np.arange(samples) % 2
    plan = _ReadPlan(sm, _delayed_reads(sm, h), h, half * 0.5)
    # the history reaches the midpoint's step end, and the node at the other stages
    ahead = plan.latest - (half + 1e-9)
    if (ahead > 0.0).any():
        r = int(np.argmax(ahead))
        read = (r // 2 + float(plan.latest[r])) * h
        raise HistoryUnderrunError(
            f"the stage at t={float(sm.t[r])!r} reads t={read!r}, past the history")
    plan.blocks = _block_steps(plan.latest, max(plan.col.size, model.n))  # reads or sums
    return plan


def _stage_function(plan: _ReadPlan, hist: HistoryBuffer):
    """The right side as ``stage(jh, u, delayed(jh))``, coefficients from sample ``jh``.

    ``jh`` counts half steps: sample ``jh`` wraps around the period, so a
    plan of one period serves every period, and the stage is anchored
    at node ``jh // 2``.  ``delayed`` sums the delayed terms from ``hist``
    in one gather and one blend, per kernel part and then per unit; they
    depend on the time and the history but not on ``u``, so stages at one
    time and one history can share them.  An array ``jh`` reads a block of
    samples in that one gather and returns one row of sums per sample, each
    with the bits of its own ``delayed(jh)``.
    """
    sm = plan.sm
    n = sm.model.n
    mod, parts = sm.kernel_weights.shape
    rows, weights = plan.rows, sm.kernel_weights
    g_act = _elementwise(sm.model.g, range(n))
    f_act, col, scale, part_dst = plan.f_act, plan.col, plan.scale, plan.part_dst
    anchor, steps, low, h = plan.anchor, plan.steps, plan.low, plan.h
    base = hist.base
    units = {}  # storage capacity -> each read's flat index of the run's node 0
    spread = (0, None, None)  # samples, then the bincount bins of samples 0, 1, ... of a block

    def read(r: np.ndarray, node: np.ndarray) -> np.ndarray:  # node: a column, one per sample
        count = hist.count
        unit = units.get(hist._cap)
        if unit is None:
            unit = units[hist._cap] = plan.src * hist._cap + base
        pos = anchor[r[:, None], col]
        pos -= steps
        # the interval each read lies in at an offset in (0, 1], clamped to the
        # newest one so that later reads extrapolate the newest cubic; RK4's
        # last stage reads before its node is appended, so there that is -2
        rel = np.ceil(pos)
        rel -= 1.0
        np.minimum(rel, -1.0 - ((node >= count) & (count > 1)), out=rel)
        basis = hist._basis(pos - rel)
        rr = rel.astype(np.intp)
        rr += node  # interval rows counted from the run's node 0
        rows = rr + unit
        before = None
        reach = int((node[:, 0] + low[r]).min())
        if reach < 0:
            # at or before the start: the initial block, whose last node is the start
            rows -= rr < 0
            if reach < 1 - base:  # before its first node: constant
                before = rr < 1 - base
                rows[before] = np.broadcast_to(unit - base, rows.shape)[before]
        ends = hist._ends(rows)
        out = hist._blend(ends, basis)
        if before is not None:
            out[before] = ends[0][before]
        if count == 1:  # one node: a first-order Taylor step past the start
            x = pos + node
            ahead = x > 0.0
            flat = np.broadcast_to(unit, x.shape)[ahead]
            v, m = hist._flat
            out[ahead] = v[flat] + (x[ahead] * h) * m[flat]
        return out

    def delayed(jh) -> np.ndarray:
        nonlocal spread
        jhs = np.atleast_1d(jh)
        r, size = jhs % mod, jhs.size
        if spread[0] < size:
            s = np.arange(size)[:, None]
            spread = (size, (s * parts + col).ravel(), (s * n + part_dst).ravel())
        terms = np.bincount(spread[1][:size * col.size], minlength=size * parts,
                            weights=(scale * f_act(read(r, jhs[:, None] // 2))).ravel())
        sums = np.bincount(spread[2][:size * parts], minlength=size * n,
                           weights=(terms.reshape(size, parts) * weights[r]).ravel())
        return sums.reshape(size, n) if np.ndim(jh) else sums

    def stage(jh: int, u: np.ndarray, du_delayed: np.ndarray) -> np.ndarray:
        neg_d, a, inputs = rows[jh % mod]
        return neg_d * u + a.dot(g_act(u)) + inputs + du_delayed

    return stage, delayed


def _exact_steps(total: float, h: float, what: str) -> int:
    k = total / h
    if k == math.inf:
        raise TooLargeError(f"{what}: {total} is more steps of h={h} than a float counts")
    r = round(k)
    if abs(k - r) > 1e-9 * max(1.0, abs(k)):
        raise ValueError(f"{what}: {total} is not an integer multiple of h={h}")
    return int(r)


def simulate(model: NetworkModel, ic: InitialCondition, t_end: float, h: float) -> Trajectory:
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
    if not isinstance(ic, InitialCondition):
        raise TypeError(f"an initial history is a ConstantIC or a SampledIC, not {type(ic).__name__}")
    u = np.asarray(ic.eval(0.0), dtype=float).copy()
    if u.shape != (n,):
        raise ValueError(f"initial condition has dimension {u.shape}, expected ({n},)")
    plan = _period_plan(model, h, min(2 * period, 2 * steps + 1))
    if 0.0 < plan.min_lag < math.inf and h >= plan.min_lag:
        # sub-step lookups will run on the extrapolant every step
        warnings.warn(f"step h={h} is not below the smallest delay {plan.min_lag:.6g}; "
                      "intra-step lookups fall back to the Hermite extrapolant")
    with holding("--t-end", f"t_end={t_end} is {steps:.3g} steps of h={h}, too many nodes "
                 "to hold in memory"):
        hist = HistoryBuffer(ic, 0.0, h, n, capacity=steps + 1, lag=plan.max_lag)
    stage, delayed = _stage_function(plan, hist)
    near = (plan.latest > -1.0).tolist()  # some read lies less than a step before the node
    m = 0
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = stage(0, u, delayed(0))
        hist.append(u, k1)
        while m < steps:  # a block of steps whose reads all lie in stored nodes, or one step
            size = max(min(plan.blocks[m % len(plan.blocks)], steps - m), 1)
            for mid, end in delayed(np.arange(2 * m + 1, 2 * (m + size) + 1)).reshape(size, 2, n):
                jh = 2 * m
                k2 = stage(jh + 1, u + (0.5 * h) * k1, mid)  # k2 and k3 read the same history
                k3 = stage(jh + 1, u + (0.5 * h) * k2, mid)
                k4 = stage(jh + 2, u + h * k3, end)
                u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                m += 1
                if near[(jh + 2) % len(near)]:  # some reads lie in the step just taken
                    hist.append(u, k4)  # they read the node with a provisional slope
                    end = delayed(jh + 2)
                    k1 = stage(jh + 2, u, end)
                    hist.set_last_derivative(k1)
                else:
                    k1 = stage(jh + 2, u, end)
                    hist.append(u, k1)
            if not np.isfinite(u).all():  # a nonfinite state stays nonfinite under RK4
                finite = np.isfinite(hist.values[m - size + 1: m + 1]).all(axis=1)
                raise DivergenceError((m - size + 1 + int(np.argmin(finite))) * h)
    times = np.arange(steps + 1) * h
    return Trajectory(times=times, states=hist.values[: steps + 1].copy(), history=hist)
