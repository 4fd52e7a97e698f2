"""Certificates for existence and exponential attraction of periodic orbits.

The primary check is pointwise in time: positive weights ``xi`` must make
each row's self-inhibition dominate the weighted instantaneous and delayed
gains by a margin ``eta`` at every grid time.  A rate-extended variant
multiplies the delayed gains by exponential factors and certifies a decay
rate ``alpha``.  The module also evaluates three sup-coefficient criteria
from the literature, which replace time-varying coefficients by their
suprema and are strictly more conservative.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .expressions import _BLOCK_VALUES, PeriodicExpr, ZERO, const, expr_sum, term_expr
from .kernels import Atom, DelayKernel, ExponentialDensity, part_gain, part_mass as _part_mass
from .model import (Activation, NetworkModel, SampledModel, _positive_weights, holding,
                    sampled)

STRICT_TOL = 1e-12
XI_BOX_MAX = 1e6
SPLIT_SEED_GRID = 1024  # the split search seeds from the weights at min(grid, 1024)
# relative slack of the rate's chord test: over the rounding of 3 rows, each up to 2.2e-7
# of its magnitude (an exponential density's moment near the rate cap)
CHORD_TOL = 2.0 ** -20
_GRID_TOO_LARGE = "the grid's arrays are too large to hold in memory"
_LP_TOL = 1e-12  # least reduced cost that enters, pivot taken and step that is progress


class ModelShapeError(ValueError):
    """Raised when a criterion needs the constant-discrete-delay model form."""


@dataclass(frozen=True, eq=False)
class Certificate:
    """Weights, margin and rate certifying a periodic orbit.

    xi is normalized to min xi_i = 1; eta is the verified grid margin; alpha
    the certified decay rate; J, M, N the input, trajectory and derivative
    bounds of the invariance arguments, None (JSON null) until computed.
    """

    xi: np.ndarray
    eta: float
    alpha: float = 0.0
    J: float | None = None
    M: float | None = None
    N: float | None = None
    grid_points: int = 0

    def __post_init__(self):
        object.__setattr__(self, "xi", _positive_weights(self.xi, np.size(self.xi)))


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    satisfied: bool
    worst_row_residual: float
    witness: dict | None = None


def _report(criterion: str, rows, witness: dict | None = None) -> CriterionReport:
    """Report on row residuals: satisfied when the worst is at most -STRICT_TOL."""
    worst = float(np.max(rows))
    return CriterionReport(criterion, worst <= -STRICT_TOL, worst, witness)


def _lipschitz(acts) -> np.ndarray:
    """Lipschitz constants of a list of activations, as a vector."""
    return np.array([act.lipschitz for act in acts])


def _kernel_gain(sm: SampledModel, alpha: float) -> tuple[np.ndarray, bool]:
    """Exponentially weighted absolute gain of every kernel; ((*T, n, n), finite).

    Kernel (i, j) sums the :func:`part_gain` of its parts from 0 in part order, the
    total variation at alpha = 0, with one mass per distinct part of ``sm.kernel_index``,
    in one pass over blocks of ``_BLOCK_VALUES`` weights.  When a density's moment
    diverges every entry is inf and ``finite`` is False.
    """
    masses = [_part_mass(part, alpha) for part in sm.kernel_index.distinct]
    if not all(finite for _, finite in masses):
        return np.full(sm.a.shape, math.inf), False
    mass = np.array([m for m, _ in masses])[sm.kernel_index.slot]
    weights = sm.kernel_weights.reshape(sm.t.size, len(mass))
    gain = np.zeros((len(weights), sm.model.n ** 2))
    step = max(1, _BLOCK_VALUES // max(len(mass), 1))
    for r in range(0, len(weights), step):
        block = part_gain(weights[r:r + step], mass)
        for cols, pairs in sm.kernel_index.by_position:
            gain[r:r + step, pairs] += block[:, cols]
    return gain.reshape(sm.a.shape), True


def _delayed_term(coef, mass, lag, alpha: float, out=(None, None)) -> np.ndarray:
    """coef * mass * e^{alpha lag} (inf past the float range), in ``out`` (two buffers) if given.

    coef * mass has the shape of ``lag``.  The one rule for a delayed gain: 0 wherever
    coef * mass is not positive (0, or 0 * inf).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        term = np.multiply(coef, mass, out=out[0])
        zero = ~(term > 0.0)
        if alpha != 0.0:  # else every factor is e^0 = 1
            factor = np.multiply(alpha, lag, out=out[1])
            np.exp(factor, out=factor)
            term *= factor
    term[zero] = 0.0
    return term


def _row_gains(abs_a, G, moment, F, tau, alpha: float) -> np.ndarray:
    """G_j |a_ij| + :func:`_delayed_term` of F_j, moment_ij and tau_ij."""
    gain = abs_a * G
    gain += _delayed_term(F, moment, tau, alpha)
    return gain


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis, in its order, not numpy's pairwise order."""
    return functools.reduce(np.add, np.moveaxis(x, -1, 0))


@functools.lru_cache(maxsize=8)
class _ConditionGrid:
    """Coefficient magnitudes on the grid, one per (model, grid), keeping no (T, n, n) array."""

    def __init__(self, model: NetworkModel, grid_points: int):
        with holding("--grid", f"{grid_points} samples are too many to hold in memory"):
            self.sm = sampled(model, grid_points, model.omega / grid_points)
        self.n = model.n
        self.G = _lipschitz(model.g)
        self.F = _lipschitz(model.f)
        self._zero_rate_gain = None

    def zero_rate_gain(self, gain: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Row sums of D_j times the alpha = 0 kernel gain (T, n) and its sup (n, n), made once."""
        if self._zero_rate_gain is None:
            tv = _kernel_gain(self.sm, 0.0)[0] if gain is None else gain
            D = np.array([act.offset for act in self.sm.model.f])
            self._zero_rate_gain = (_row_sums(tv * D), tv.max(axis=0))
        return self._zero_rate_gain

    def gain_matrix(self, alpha: float) -> tuple[np.ndarray, bool]:
        """Row gains :func:`_row_gains` at every grid time, in two (T, n, n) arrays.

        The kernel gain becomes the delayed term in place, then G_j |a_ij| is
        made and the term added to it.
        """
        mom, finite = _kernel_gain(self.sm, alpha)
        if not finite:
            return mom, False
        if alpha == 0.0:
            self.zero_rate_gain(mom)
        term = _delayed_term(self.F, mom, self.sm.tau, alpha, out=(mom, None))
        gain = np.abs(self.sm.a)
        gain *= self.G
        gain += term
        return gain, True

    def condition_rows(self, gain: np.ndarray, alpha: float) -> np.ndarray:
        """Rows R with R @ xi the residual: ``gain`` plus alpha - d_i on its diagonal, in place."""
        idx = np.arange(self.n)
        gain[:, idx, idx] += alpha - self.sm.d
        return gain

    def residual_rows(self, xi: np.ndarray, alpha: float) -> np.ndarray:
        return self.condition_rows(self.gain_matrix(alpha)[0], alpha) @ xi


def check_row_dominance(model: NetworkModel, xi, grid_points: int = 4096) -> tuple[float, bool]:
    """Margin eta of the pointwise condition for fixed weights.

    Returns (eta, satisfied) where eta is minus the worst row residual over a
    uniform grid of ``grid_points`` times per period.
    """
    cg = _ConditionGrid(model, grid_points)
    res = cg.residual_rows(_positive_weights(xi, model.n), 0.0)
    eta = -float(res.max())
    return eta, eta >= STRICT_TOL


@dataclass(frozen=True)
class LPResult:
    """:func:`linprog`'s answer, in scipy's codes: status 0 optimal, 1 pivot limit, 3 unbounded."""

    status: int
    x: np.ndarray | None = None  # (xi, t) when optimal


def linprog(c, A_ub, b_ub, bounds) -> LPResult:
    """max t subject to A_ub @ (xi, t) <= b_ub and xi in its ``bounds``: the max-margin LP.

    scipy's call shape for the one LP the weight search poses: c is -e_t, t is the last
    variable, free, with a column of ones in A_ub, and each xi_j lies in a finite box
    [lo_j, hi_j].  With xi = lo + y and t = min(r) + s, r = b_ub - A_ub lo, the origin of
    (y, s) >= 0 is a vertex (the optimal t is at least min(r)), so no phase I is needed; the
    boxes are n more rows y <= hi - lo.  A dense condensed tableau: the variable of largest
    reduced cost enters, and Bland's rule (least label enters, least label leaves a tie)
    after a pivot that made no progress, so the simplex cannot cycle.  The returned t is
    the largest that xi allows.
    """
    c, A, b = (np.asarray(v, dtype=float) for v in (c, A_ub, b_ub))
    m, n = A.shape[0], A.shape[1] - 1
    lo, hi = np.array(bounds[:n], dtype=float).reshape(n, 2).T
    if (c[:n].any() or not c[n] < 0.0 or tuple(bounds[n]) != (None, None)
            or not (A[:, n] == 1.0).all() or not np.isfinite([lo, hi]).all()):
        raise ValueError("linprog takes only the max-margin LP: max t over A_ub @ (xi, t) "
                         "<= b_ub, a column of ones for t, and a finite box for each xi")
    r = b - A[:, :n] @ lo
    tab = np.zeros((m + n + 1, n + 2))  # rows: A's, the boxes, -(reduced costs); last column: values
    tab[:m, :n + 1] = A
    tab[:m, -1] = r - r.min()
    tab[m:m + n, :n] = np.eye(n)
    tab[m:m + n, -1] = hi - lo
    tab[-1, n] = -1.0
    nonbasic, basic = np.arange(n + 1), np.arange(n + 1, n + 1 + m + n)  # labels: y, s, slacks
    bland = False
    for _ in range(50 * (m + n)):  # a guard: without cycling the simplex ends far sooner
        cost = tab[-1, :-1]
        enter = np.flatnonzero(cost < -_LP_TOL)
        if not enter.size:
            y = np.zeros(m + 2 * n + 1)  # by label; a nonbasic variable is 0
            y[basic] = tab[:-1, -1]
            xi = np.clip(lo + y[:n], lo, hi)  # rounding may step past a bound
            return LPResult(0, np.append(xi, (b - A[:, :n] @ xi).min()))
        q = enter[np.argmin(nonbasic[enter])] if bland else int(np.argmin(cost))
        col, val = tab[:-1, q], np.maximum(tab[:-1, -1], 0.0)
        ok = col > _LP_TOL
        if not ok.any():
            return LPResult(3)
        ratio = np.full(len(col), math.inf)
        np.divide(val, col, out=ratio, where=ok)
        ties = np.flatnonzero(ratio == ratio.min())
        p = ties[np.argmin(basic[ties])] if bland else ties[np.argmax(col[ties])]
        bland = ratio[p] <= _LP_TOL
        pivot = tab[p, q]
        prow, pcol = tab[p] / pivot, tab[:, q].copy()
        tab -= np.outer(pcol, prow)
        tab[p] = prow
        tab[:, q] = -pcol / pivot
        tab[p, q] = 1.0 / pivot
        nonbasic[q], basic[p] = basic[p], nonbasic[q]
    return LPResult(1)


def _max_margin_weights(blocks: np.ndarray) -> np.ndarray | None:
    """Weights in [1, XI_BOX_MAX] that minimize the worst row of ``blocks`` (T, n, n) @ xi.

    Cutting planes (Kelley 1960): the LP runs on each unit's worst row at unit
    weights, then adds each unit's worst row above the LP's rows at its weights
    until none is; those weights solve the LP over all rows.  None if an LP fails.
    """
    T, n, _ = blocks.shape
    active = np.zeros((T, n), dtype=bool)
    active[blocks.sum(axis=2).argmax(axis=0), np.arange(n)] = True
    c = np.append(np.zeros(n), -1.0)
    while True:
        m = int(active.sum())
        res = linprog(c, A_ub=np.hstack([blocks[active], np.ones((m, 1))]), b_ub=np.zeros(m),
                      bounds=[(1.0, XI_BOX_MAX)] * n + [(None, None)])
        if res.status != 0:
            return None
        xi = res.x[:n]
        rows = blocks @ xi
        inactive = np.where(active, -np.inf, rows)
        new = np.flatnonzero(inactive.max(axis=0) > rows[active].max())
        if not new.size:
            return xi
        active[inactive.argmax(axis=0)[new], new] = True


def _lp_weights(rows: np.ndarray) -> np.ndarray:
    """The one weight rule: :func:`_max_margin_weights` of the finite ``rows`` (T, n, n),
    scaled to least weight 1, or unit weights when an LP fails.

    The LP sums each row over weights in [1, XI_BOX_MAX], so a row whose
    magnitudes at weight XI_BOX_MAX sum past the float range raises ValueError,
    naming its unit, before any LP runs.
    """
    with np.errstate(over="ignore"):
        reach = np.maximum(rows.max(axis=0), -rows.min(axis=0)).sum(axis=1) * XI_BOX_MAX
    over = np.flatnonzero(reach == math.inf)
    if over.size:
        raise ValueError(f"unit {over[0] + 1}: the gains of its dominance row, at weights up "
                         f"to {XI_BOX_MAX:g}, sum past the float range")
    xi = _max_margin_weights(rows)
    return np.ones(rows.shape[-1]) if xi is None else xi / xi.min()


def find_weights(model: NetworkModel, grid_points: int = 4096,
                 alpha: float = 0.0) -> Certificate | None:
    """Search for positive weights certifying the pointwise condition.

    The weights are the max-margin solution of the grid program by cutting
    planes, boxed to [1, XI_BOX_MAX] and scaled to least weight 1, or unit
    weights when an LP fails (:func:`_lp_weights`).  ``alpha > 0`` certifies
    the rate-extended condition instead.  Returns None when a row is not
    finite or these weights do not make the margin positive on the grid;
    that is not a proof of instability.
    """
    cg = _ConditionGrid(model, grid_points)
    with holding("--grid", _GRID_TOO_LARGE):
        rows = cg.condition_rows(cg.gain_matrix(alpha)[0], alpha)
    if not np.isfinite(rows).all():  # a diverging moment or an overflowing e^{alpha tau}
        return None
    xi = _lp_weights(rows)
    eta = -float((rows @ xi).max())
    if eta < STRICT_TOL:
        return None
    return Certificate(xi=xi, eta=eta, alpha=alpha, grid_points=grid_points)


def find_decay_rate(model: NetworkModel, xi, grid_points: int = 4096,
                    tol: float = 1e-6) -> float:
    """Largest certifiable decay rate for fixed weights, by bisection.

    The rate-extended residual is nondecreasing in alpha (every alpha term
    is), so the feasible rates form an interval [0, alpha*].  The cap stays
    below any exponential density's decay constant, where the moment blows
    up.  Returns 0.0 when even the base condition fails.  The bisection
    stops at bracket width ``tol`` (> 0) or when the midpoint rounds onto
    an end of the bracket.  It reads the sampled model's layout: ``xi`` is
    contracted once into a (T, n) base and (T, K) delayed coefficients and
    lags of the T time samples and K kernel parts, on the grid all phases
    share.  A rate takes one mass per distinct part.  The walk down from
    the cap evaluates one sample, the worst at rate 0: a rate where its
    largest row is positive is infeasible and becomes the upper end.  At
    the first rate it does not decide, every sample is evaluated once at
    the upper end.  An infeasible rate drops the time samples whose rows
    all lie at or below 0 there: later rates are lower.  Rows are convex
    in alpha, so the chord of a sample's largest row between the bracket's
    ends bounds its rows; a sample whose chord lies below 0 by more than
    rounding (``CHORD_TOL``) is not evaluated, and the others are gathered
    into two (T, K) buffers, made once, where their delayed terms are
    computed.
    """
    if not tol > 0.0:
        raise ValueError(f"bisection tolerance must be > 0, got {tol}")
    cg = _ConditionGrid(model, grid_points)
    sm, xi, index = cg.sm, _positive_weights(xi, model.n), cg.sm.kernel_index
    i, j = np.divmod(index.pair, model.n)
    first = np.flatnonzero(np.diff(i, prepend=-1))  # a row's parts are adjacent (row-major)
    rows = i[first]

    # row (t, i): base + alpha xi_i, plus the sum of coef * mass * e^{alpha lag} over the
    # parts of the row, coef = F_j xi_j |w(t)| and lag = tau_ij(t)
    with holding("--grid", _GRID_TOO_LARGE):
        base = np.abs(sm.a) @ (cg.G * xi) - sm.d * xi
        coef = np.abs(sm.kernel_weights) * (cg.F * xi)[j]
        lag = np.take(sm.tau.reshape(-1, model.n ** 2), index.pair, axis=1)  # coef's order
        spare = [np.empty_like(coef), np.empty_like(coef)]

    def residual(alpha: float, idx: np.ndarray) -> np.ndarray:
        """Largest row of each time sample ``idx``; delayed terms are made in the spare buffers."""
        mass = np.array([_part_mass(p, alpha)[0] for p in index.distinct])[index.slot]
        out = [b[:len(idx)] for b in spare]
        c, l = (coef, lag) if len(idx) == len(coef) else (  # else gathered, then made in place
            np.take(a, idx, axis=0, out=b, mode="clip") for a, b in zip((coef, lag), out))
        term = _delayed_term(c, mass, l, alpha, out=out)
        delayed = np.zeros((len(idx), model.n))
        delayed[:, rows] = np.add.reduceat(term, first, axis=1)  # a fixed order, unlike BLAS
        return (base[idx] + alpha * xi + delayed).max(axis=1)

    kept = np.arange(len(base))
    res_lo = residual(0.0, kept)
    if res_lo.max() > 0.0:
        return 0.0
    top = kept[[res_lo.argmax()]]  # the sample worst at rate 0
    cap = float(sm.d.max()) + 1.0
    for p in index.distinct:
        if isinstance(getattr(p, "shape", None), ExponentialDensity):
            cap = min(cap, p.shape.lam * (1.0 - 1e-9))
    lo, hi, alpha, res_hi = 0.0, cap, cap, np.full_like(res_lo, math.inf)  # no chord to cap
    while residual(alpha, top)[0] > 0.0:  # one positive row: alpha is infeasible
        hi, alpha = alpha, 0.5 * (lo + alpha)
        if hi - lo <= tol or alpha in (lo, hi):
            return lo
    if alpha < cap:  # hi's rows, measured once: the chord's upper end and the pruning
        res_hi = residual(hi, kept)
        pos = res_hi > 0.0
        kept, res_lo, res_hi = kept[pos], res_lo[pos], res_hi[pos]
    # CHORD_TOL of 2 |base| + res_hi, a bound on a row's |base| + alpha xi + delayed up to hi
    slack = CHORD_TOL * 2.0 * np.abs(base).max(axis=1)
    while True:  # res_lo and res_hi bound each sample's largest row; res is their chord at alpha
        res = res_lo + (alpha - lo) / (hi - lo) * (res_hi - res_lo) + (
            slack[kept] + CHORD_TOL * np.abs(res_hi))
        need = np.flatnonzero(~(res < 0.0))  # NaN too
        if need.size:
            res[need] = residual(alpha, kept[need])
        if res.max() <= 0.0:
            lo, res_lo = alpha, res
        else:
            hi = alpha
            pos = res > 0.0
            kept, res_lo, res_hi = kept[pos], res_lo[pos], res[pos]
        alpha = 0.5 * (lo + hi)
        if hi - lo <= tol or alpha in (lo, hi):
            return lo


def compute_bounds(model: NetworkModel, certificate: Certificate,
                   grid_points: int | None = None) -> tuple[float, float, float]:
    """A-priori bounds (J, M, N) for a certified model.

    J bounds the inhomogeneous terms, M = 1.01 J / eta bounds trajectories
    started inside the weighted ball, and N bounds the derivative on that
    ball.  With no inputs or offsets (J = 0) any positive M works; 1 is used.
    """
    gp = grid_points or certificate.grid_points or 4096
    cg = _ConditionGrid(model, gp)
    sm, xi = cg.sm, certificate.xi
    C = np.array([act.offset for act in model.g])
    with holding("--grid", _GRID_TOO_LARGE):
        abs_a, abs_inputs = np.abs(sm.a), np.abs(sm.inputs)
        tv_rows, tv_sup = cg.zero_rate_gain()
        J = float((_row_sums(abs_a * C) + tv_rows + abs_inputs).max())
    M = 1.01 * J / certificate.eta if J > 0.0 else 1.0
    alpha_hat = float((np.abs(sm.d).max(axis=0) / xi).max())
    beta_hat = float(((abs_a.max(axis=0) * cg.G) / xi[:, None]).max())
    gamma_hat = float(((tv_sup * cg.F) / xi[:, None]).max())
    c_hat = float((abs_inputs.max(axis=0) / xi).max())
    N = (alpha_hat + beta_hat + gamma_hat) * M + c_hat
    return J, M, N


# --- sup-coefficient rival criteria (constant-discrete-delay form) ----------

@dataclass(frozen=True)
class DiscreteDelayForm:
    """Sup/inf summary of a model whose kernels are single discrete delays."""

    d_inf: np.ndarray
    a_sup: np.ndarray
    b_sup: np.ndarray
    tau_sup: np.ndarray

    def lag(self, alpha: float) -> np.ndarray:
        """e^{alpha tau_sup}: inf past the float range where b_sup != 0, 0 where b_sup == 0."""
        return _delayed_term(self.b_sup > 0.0, 1.0, self.tau_sup, alpha)


def discrete_delay_form(model: NetworkModel, grid_points: int = 4096) -> DiscreteDelayForm:
    """Extract sup coefficients, or raise ModelShapeError.

    Requires every kernel to be at most one atom with no density, so each
    pair (i, j) contributes one discrete delayed gain.  Time-varying delays
    enter through their supremum, which is exact for constant delays and the
    conservative application otherwise (and irrelevant at rate zero).
    """
    cg = _ConditionGrid(model, grid_points)
    tau_sup = cg.sm.tau.max(axis=0)
    for i, row in enumerate(model.kernels):
        for j, kern in enumerate(row):
            if kern.density is not None:
                raise ModelShapeError(
                    f"kernel[{i}][{j}] has a distributed density; sup criteria need "
                    "single discrete delays")
            if len(kern.atoms) > 1:
                raise ModelShapeError(
                    f"kernel[{i}][{j}] has multiple atoms; sup criteria need a single "
                    "delay per pair")
            for atom in kern.atoms:
                tau_sup[i, j] += atom.s
    return DiscreteDelayForm(d_inf=cg.sm.d.min(axis=0), a_sup=np.abs(cg.sm.a).max(axis=0),
                             b_sup=cg.zero_rate_gain()[1], tau_sup=tau_sup)


def _sup_report(model: NetworkModel, form: DiscreteDelayForm, alpha: float,
                theta: np.ndarray | None = None) -> CriterionReport:
    """Sup criterion for weights theta, or for the best weights (one small LP) when None."""
    S = (_row_gains(form.a_sup, _lipschitz(model.g), form.b_sup, _lipschitz(model.f),
                    form.tau_sup, alpha) + np.diag(alpha - form.d_inf))
    if theta is None:  # an inf row (an overflowing lag) cannot be met: unit weights, as checked
        theta = _lp_weights(S[None]) if np.isfinite(S).all() else np.ones(model.n)
    return _report("sup", S @ theta, {"theta": [float(v) for v in theta], "alpha": alpha})


def _split_sup_rows(model: NetworkModel, form: DiscreteDelayForm, alpha: float,
                    xi: np.ndarray, a_exp: np.ndarray, b_exp: np.ndarray) -> np.ndarray:
    """Split-criterion row residuals (C, n) of C candidates: xi (C, n), exponents (C, n, n).

    float_power is the scalar C pow (numpy's SIMD power rounds some powers
    differently), so up to 7 units, where numpy sums in order, the rows equal the
    scalar per-row sums bit for bit.  The lag e^{alpha tau_sup} is 0 where the
    weight side ``b_sup F_j`` is 0, by :func:`_delayed_term`; a row still meeting
    0 * inf (an underflowed gain power against an overflowing lag) counts as violated.
    """
    G = _lipschitz(model.g)
    F = _lipschitz(model.f)
    off = 1.0 - np.eye(model.n)
    lag = _delayed_term(form.b_sup * F > 0.0, 1.0, form.tau_sup, alpha)
    xi_j = xi[:, :, None]  # xi_j against the gains [c, j, i] into row i
    with np.errstate(over="ignore", invalid="ignore"):
        a_in = (xi_j * np.float_power(form.a_sup, 2.0 * a_exp) * off).sum(axis=1)
        a_out = (G * np.float_power(form.a_sup, 2.0 * (1.0 - a_exp)) * off).sum(axis=2)
        b_in = (xi_j * np.float_power(form.b_sup, 2.0 * b_exp) * lag).sum(axis=1)
        b_out = (F * np.float_power(form.b_sup, 2.0 * (1.0 - b_exp)) * lag).sum(axis=2)
        rows = ((-form.d_inf + alpha) * xi + G * (xi * np.diag(form.a_sup) + 0.5 * a_in)
                + 0.5 * xi * a_out + 0.5 * F * b_in + 0.5 * xi * b_out)
    return np.where(np.isnan(rows), np.inf, rows)


def _split_sup_search(model: NetworkModel, form: DiscreteDelayForm, alpha: float, draws: int,
                      seed: int, cert: Certificate | None) -> CriterionReport:
    """Randomized search over weights and exponents for the split criterion on ``form``.

    Tries unit weights and the weights of ``cert`` (when not None) with the
    symmetric exponent choice 1/2, then ``draws`` seeded random (xi,
    exponents) draws.  Reports the first candidate that satisfies the
    criterion, else the first with the smallest worst row residual.
    """
    n = model.n
    fixed = [np.ones(n)] + ([cert.xi] if cert is not None else [])
    # per-column bounds: each draw takes xi, then a_exp, then b_exp from the stream
    parts = [n, n * n, n * n]
    rng = np.random.default_rng(seed)
    with holding("--draws", "the draws' arrays are too large to hold in memory"):
        u = rng.uniform(np.repeat([-1.5, 0.05, 0.05], parts), np.repeat([1.5, 0.95, 0.95], parts),
                        size=(draws, sum(parts)))
        half = np.full((len(fixed), n, n), 0.5)
        xi = np.vstack(fixed + [np.exp(u[:, :n])])
        a_exp = np.concatenate([half, u[:, n:n + n * n].reshape(-1, n, n)])
        b_exp = np.concatenate([half, u[:, n + n * n:].reshape(-1, n, n)])
        rows = _split_sup_rows(model, form, alpha, xi, a_exp, b_exp)
    worst = rows.max(axis=1)
    k = np.argmin(np.where(worst <= -STRICT_TOL, -np.inf, worst))  # first hit, else first min
    return _report("split-sup", rows[k], {"xi": [float(v) for v in xi[k]], "alpha": float(alpha),
                                          "a_exp": a_exp[k].tolist(), "b_exp": b_exp[k].tolist()})


def _period_scaled_report(model: NetworkModel, form: DiscreteDelayForm) -> CriterionReport:
    amp = 1.0 + form.d_inf * model.omega
    rows = (-form.d_inf
            + amp * (form.a_sup * _lipschitz(model.g)[None, :]).sum(axis=1)
            + amp * (form.b_sup * _lipschitz(model.f)[None, :]).sum(axis=1))
    return _report("sup-period-scaled", rows)


def pointwise_criterion_label(model: NetworkModel) -> str:
    """Label the pointwise check by the kernel shapes it specializes to."""
    kernels = [kern for row in model.kernels for kern in row]
    has_atoms = any(kern.atoms for kern in kernels)
    has_density = any(kern.density is not None for kern in kernels)
    if has_density and has_atoms:
        return "pointwise"
    if has_density:
        return "pointwise-distributed"
    return "pointwise-discrete"


def _pointwise_report(model: NetworkModel, cert: Certificate | None,
                      grid_points: int) -> CriterionReport:
    """Report on the weight search at ``grid_points``, whose result is ``cert``."""
    label = pointwise_criterion_label(model)
    if cert is None:
        return _report(label, -check_row_dominance(model, np.ones(model.n), grid_points)[0])
    return _report(label, -cert.eta,
                   {"xi": [float(v) for v in cert.xi], "grid_points": grid_points})


def compare_criteria(model: NetworkModel, grid_points: int = 4096, draws: int = 200,
                     seed: int = 0) -> list[CriterionReport | ModelShapeError]:
    """The pointwise, split-sup, sup and sup-period-scaled reports at rate 0, in that order.

    One weight search at ``grid_points`` gives the pointwise report and, on grids up
    to 1024, seeds the split search; one sup form serves the three sup criteria.  On
    a model not in discrete-delay form those three are its ModelShapeError instead.
    """
    cert = find_weights(model, grid_points=grid_points)
    pointwise = _pointwise_report(model, cert, grid_points)
    try:
        form = discrete_delay_form(model, grid_points)
    except ModelShapeError as exc:
        return [pointwise, exc, exc, exc]
    if grid_points > SPLIT_SEED_GRID:
        cert = find_weights(model, grid_points=SPLIT_SEED_GRID)
    return [pointwise, _split_sup_search(model, form, 0.0, draws, seed, cert),
            _sup_report(model, form, 0.0), _period_scaled_report(model, form)]


def random_discrete_delay_model(rng: np.random.Generator) -> NetworkModel:
    """Seeded random constant-delay instance for ensemble comparisons.

    Mixes strongly dominated, marginal and unstable regimes so comparison
    ensembles contain instances on both sides of each criterion.
    """
    n = int(rng.integers(1, 4))
    regime = int(rng.integers(0, 3))
    scale = (0.05, 0.4, 1.1)[regime]

    def positive_expr(lo: float, hi: float) -> PeriodicExpr:
        base = float(rng.uniform(lo, hi))
        amp = float(rng.uniform(0.0, 0.4 * base))
        kind = "sin2" if rng.integers(0, 2) else "cos2"
        return expr_sum(const(base), term_expr(kind, amp, int(rng.integers(1, 4))))

    def gain_expr(mag: float) -> PeriodicExpr:
        if rng.uniform() < 0.25:
            return ZERO
        c = float(rng.uniform(-mag, mag))
        if rng.uniform() < 0.5:
            return const(c)
        kind = ("sin2", "cos2", "abs_sin", "abs_cos")[int(rng.integers(0, 4))]
        return term_expr(kind, c, int(rng.integers(1, 4)))

    def input_expr() -> PeriodicExpr:
        c0 = float(rng.uniform(-1.0, 1.0))
        amp = float(rng.uniform(0.0, 2.0))
        kind = "sin" if rng.integers(0, 2) else "cos"
        return expr_sum(const(c0), term_expr(kind, amp, int(rng.integers(1, 3))))

    def activation() -> Activation:
        which = int(rng.integers(0, 3))
        return (Activation.tanh(), Activation.arctan(), Activation.identity())[which]

    d = tuple(positive_expr(0.8, 3.0) for _ in range(n))
    a = tuple(tuple(gain_expr(scale) for _ in range(n)) for _ in range(n))
    kernels = []
    tau = []
    for _ in range(n):
        krow = []
        trow = []
        for _ in range(n):
            w = gain_expr(0.7 * scale)
            krow.append(DelayKernel() if not w.terms else DelayKernel((Atom(0.0, w),)))
            trow.append(const(float(rng.uniform(0.0, 1.5))))
        kernels.append(tuple(krow))
        tau.append(tuple(trow))
    inputs = tuple(input_expr() for _ in range(n))
    g = tuple(activation() for _ in range(n))
    f = tuple(activation() for _ in range(n))
    return NetworkModel(n=n, omega=2.0, d=d, a=a, kernels=tuple(kernels),
                        tau=tuple(tau), inputs=inputs, g=g, f=f)
