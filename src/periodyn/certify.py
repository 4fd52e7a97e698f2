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
from scipy.optimize import linprog

from .expressions import PeriodicExpr, ZERO, const, expr_sum, term_expr
from .kernels import (Atom, DelayKernel, ExponentialDensity, part_gain,
                      part_mass as _part_mass, total_variation)
from .model import (Activation, NetworkModel, SampledModel, _positive_weights, eval_coefficients,
                    sampled)

STRICT_TOL = 1e-12
XI_BOX_MAX = 1e6
SPLIT_SEED_GRID = 1024  # the split search seeds from the weights at min(grid, 1024)


class ModelShapeError(ValueError):
    """Raised when a criterion needs the constant-discrete-delay model form."""


def weighted_sup_norm(x, xi) -> float:
    """max_i |x_i| / xi_i, the norm all bounds and contraction rates use."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return float(np.max(np.abs(x) / xi))


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

    Kernel (i, j) sums the :func:`part_gain` of its parts' sampled weights and
    masses, the total variation at alpha = 0.  When a density's moment
    diverges every entry is inf and ``finite`` is False.
    """
    gain = np.zeros(sm.a.shape)
    for k, (i, j, part) in enumerate(sm.kernel_parts):
        mass, finite = _part_mass(part, alpha)
        if not finite:
            return np.full(sm.a.shape, math.inf), False
        gain[..., i, j] += part_gain(sm.kernel_weights[..., k], mass)
    return gain, True


def _delayed_term(coef, mass, lag, alpha: float) -> np.ndarray:
    """coef * mass * e^{alpha lag} (inf past the float range); coef * mass has the shape of ``lag``.

    The one rule for a delayed gain: 0 wherever coef * mass is not positive (0, or 0 * inf).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        term = coef * mass
        zero = ~(term > 0.0)
        factor = np.multiply(alpha, lag)
        np.exp(factor, out=factor)
        term *= factor
    term[zero] = 0.0
    return term


def _row_gains(abs_a, G, moment, F, tau, alpha: float) -> np.ndarray:
    """G_j |a_ij| + :func:`_delayed_term` of F_j, moment_ij and tau_ij."""
    gain = abs_a * G
    gain += _delayed_term(F, moment, tau, alpha)
    return gain


class _ConditionGrid:
    """Coefficient magnitudes on the grid, shaped for fast residual evaluation."""

    def __init__(self, model: NetworkModel, grid_points: int):
        self.sm = sampled(model, grid_points, model.omega / grid_points)
        self.n = model.n
        self.G = _lipschitz(model.g)
        self.F = _lipschitz(model.f)
        self.abs_a = np.abs(self.sm.a)

    def gain_matrix(self, alpha: float) -> tuple[np.ndarray, bool]:
        """Row gains :func:`_row_gains` at every grid time."""
        mom, finite = _kernel_gain(self.sm, alpha)
        if not finite:
            return mom, False
        return _row_gains(self.abs_a, self.G, mom, self.F, self.sm.tau, alpha), True

    def condition_rows(self, gain: np.ndarray, alpha: float) -> np.ndarray:
        """Rows R with R @ xi the residual: ``gain`` plus alpha - d_i on its diagonal, in place."""
        idx = np.arange(self.n)
        gain[:, idx, idx] += alpha - self.sm.d
        return gain

    def residual_rows(self, xi: np.ndarray, alpha: float) -> np.ndarray:
        return self.condition_rows(self.gain_matrix(alpha)[0], alpha) @ xi


def row_residual(model: NetworkModel, xi, t: float, i: int) -> float:
    """Left side of the dominance condition for row ``i`` at time ``t``."""
    xi = np.asarray(xi, dtype=float)
    sl = eval_coefficients(model, t)
    acc = -xi[i] * sl.d[i]
    for j in range(model.n):
        acc += xi[j] * model.g[j].lipschitz * abs(sl.a[i, j])
        acc += xi[j] * model.f[j].lipschitz * total_variation(model.kernels[i][j], t)
    return float(acc)


def check_row_dominance(model: NetworkModel, xi, grid_points: int = 4096) -> tuple[float, bool]:
    """Margin eta of the pointwise condition for fixed weights.

    Returns (eta, satisfied) where eta is minus the worst row residual over a
    uniform grid of ``grid_points`` times per period.
    """
    cg = _ConditionGrid(model, grid_points)
    res = cg.residual_rows(_positive_weights(xi, model.n), 0.0)
    eta = -float(res.max())
    return eta, eta >= STRICT_TOL


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
                      bounds=[(1.0, XI_BOX_MAX)] * n + [(None, None)], method="highs")
        if res.status != 0:
            return None
        xi = res.x[:n]
        rows = blocks @ xi
        inactive = np.where(active, -np.inf, rows)
        new = np.flatnonzero(inactive.max(axis=0) > rows[active].max())
        if not new.size:
            return xi
        active[inactive.argmax(axis=0)[new], new] = True


def find_weights(model: NetworkModel, grid_points: int = 4096,
                 alpha: float = 0.0) -> Certificate | None:
    """Search for positive weights certifying the pointwise condition.

    Three candidates, scaled to least weight 1, compete on the grid margin:
    the conservative comparison-matrix witness (if any), the max-margin
    solution of the grid program by cutting planes (weights boxed to
    [1, 1e6]), and unit weights.
    ``alpha > 0`` certifies the rate-extended condition instead.  Returns
    None when no weights make the margin positive on the grid; that is not a
    proof of instability.
    """
    cg = _ConditionGrid(model, grid_points)
    gain = cg.gain_matrix(alpha)[0]
    _, xi_mm = _comparison_weights(gain, cg.sm.d, alpha)  # before the diagonal joins the gain
    rows = cg.condition_rows(gain, alpha)
    if not np.isfinite(rows).all():  # a diverging moment or an overflowing e^{alpha tau}
        return None
    xi_lp = _max_margin_weights(rows)
    candidates = [xi for xi in (xi_mm, xi_lp) if xi is not None] + [np.ones(model.n)]

    best_xi, best_eta = None, -math.inf
    for xi in candidates:
        xi_hat = xi / xi.min()
        eta = -float((rows @ xi_hat).max())
        if eta > best_eta:
            best_xi, best_eta = xi_hat, eta
    if best_eta < STRICT_TOL:
        return None
    return Certificate(xi=best_xi, eta=best_eta, alpha=alpha, grid_points=grid_points)


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
    lags of the T time samples and K kernel parts.  An infeasible rate drops
    the time samples whose rows all lie at or below 0 there: later rates are
    lower.
    """
    if not tol > 0.0:
        raise ValueError(f"bisection tolerance must be > 0, got {tol}")
    cg = _ConditionGrid(model, grid_points)
    sm, xi = cg.sm, _positive_weights(xi, model.n)
    i, j = np.array([ij for *ij, _ in sm.kernel_parts], dtype=np.intp).reshape(-1, 2).T
    rows, first = np.unique(i, return_index=True)  # a row's parts are adjacent (row-major)

    # row (t, i): base + alpha xi_i, plus the sum of coef * mass * e^{alpha lag} over the
    # parts of the row, coef = F_j xi_j |w(t)| and lag = tau_ij(t)
    base = cg.abs_a @ (cg.G * xi) - sm.d * xi
    coef = np.abs(sm.kernel_weights) * (cg.F * xi)[j]
    lag = np.take(sm.tau.reshape(-1, model.n ** 2), i * model.n + j, axis=1)  # C order, like coef

    def residual(alpha: float) -> np.ndarray:
        term = _delayed_term(coef, [_part_mass(p, alpha)[0] for *_, p in sm.kernel_parts],
                             lag, alpha)
        delayed = np.zeros_like(base)
        delayed[:, rows] = np.add.reduceat(term, first, axis=1)  # a fixed order, unlike BLAS
        return base + alpha * xi + delayed

    if residual(0.0).max() > 0.0:
        return 0.0
    cap = float(sm.d.max()) + 1.0
    for *_, p in sm.kernel_parts:
        if isinstance(getattr(p, "shape", None), ExponentialDensity):
            cap = min(cap, p.shape.lam * (1.0 - 1e-9))
    lo, hi, alpha = 0.0, cap, cap
    while True:
        res = residual(alpha)
        if res.max() <= 0.0:
            lo = alpha
        else:
            hi = alpha
            kept = (res > 0.0).any(axis=1)
            base, coef, lag = base[kept], coef[kept], lag[kept]
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
    tv = _kernel_gain(sm, 0.0)[0]
    abs_inputs = np.abs(sm.inputs)
    C = np.array([act.offset for act in model.g])
    D = np.array([act.offset for act in model.f])

    def row_sums(x: np.ndarray) -> np.ndarray:  # over j in order, not numpy's pairwise order
        return functools.reduce(np.add, np.moveaxis(x, -1, 0))

    J = float((row_sums(cg.abs_a * C) + row_sums(tv * D) + abs_inputs).max())
    M = 1.01 * J / certificate.eta if J > 0.0 else 1.0
    alpha_hat = float((np.abs(sm.d).max(axis=0) / xi).max())
    beta_hat = float(((cg.abs_a.max(axis=0) * cg.G) / xi[:, None]).max())
    gamma_hat = float(((tv.max(axis=0) * cg.F) / xi[:, None]).max())
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
    return DiscreteDelayForm(d_inf=cg.sm.d.min(axis=0), a_sup=cg.abs_a.max(axis=0),
                             b_sup=_kernel_gain(cg.sm, 0.0)[0].max(axis=0), tau_sup=tau_sup)


def _sup_report(model: NetworkModel, form: DiscreteDelayForm, alpha: float,
                theta: np.ndarray | None = None) -> CriterionReport:
    """Sup criterion for weights theta, or for the best weights (one small LP) when None."""
    S = (_row_gains(form.a_sup, _lipschitz(model.g), form.b_sup, _lipschitz(model.f),
                    form.tau_sup, alpha) + np.diag(alpha - form.d_inf))
    if theta is None:  # an inf row (an overflowing lag) cannot be met: unit weights, as checked
        theta = _max_margin_weights(S[None]) if np.isfinite(S).all() else None
        theta = np.ones(model.n) if theta is None else theta / theta.min()
    return _report("sup", S @ theta, {"theta": [float(v) for v in theta], "alpha": alpha})


def check_sup_criterion(model: NetworkModel, theta, alpha: float = 0.0,
                        grid_points: int = 4096) -> CriterionReport:
    """Plain sup-coefficient row condition for fixed weights theta."""
    return _sup_report(model, discrete_delay_form(model, grid_points), alpha,
                       np.asarray(theta, dtype=float))


def search_sup_criterion(model: NetworkModel, alpha: float = 0.0,
                         grid_points: int = 4096) -> CriterionReport:
    """Best-weight variant of the sup criterion (exact small feasibility LP)."""
    return _sup_report(model, discrete_delay_form(model, grid_points), alpha)


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


def _split_sup_report(rows, xi, alpha, a_exp, b_exp) -> CriterionReport:
    return _report("split-sup", rows, {"xi": [float(v) for v in xi], "alpha": float(alpha),
                                       "a_exp": a_exp.tolist(), "b_exp": b_exp.tolist()})


def check_split_sup_criterion(model: NetworkModel, xi, alpha, a_exp, b_exp,
                              grid_points: int = 4096) -> CriterionReport:
    """Exponent-split sup criterion: symmetrized row/column gain averages.

    Off-diagonal gains enter as halves of |.|^{2p} and |.|^{2(1-p)} powers
    with free exponents p in (0, 1); small gains are inflated by the powers,
    which is what makes this criterion the most conservative of the three.
    """
    form = discrete_delay_form(model, grid_points)
    xi, a_exp, b_exp = (np.asarray(v, dtype=float) for v in (xi, a_exp, b_exp))
    if not all(np.all((0.0 < e) & (e < 1.0)) for e in (a_exp, b_exp)):
        raise ValueError("exponent matrices must lie strictly inside (0, 1)")
    rows = _split_sup_rows(model, form, alpha, xi[None], a_exp[None], b_exp[None])[0]
    return _split_sup_report(rows, xi, alpha, a_exp, b_exp)


def search_split_sup_criterion(model: NetworkModel, alpha: float = 0.0, draws: int = 200,
                               seed: int = 0, grid_points: int = 4096) -> CriterionReport:
    """Randomized search over weights and exponents for the split criterion.

    Tries unit weights and the certified weights (at a grid of at most
    1024) with the symmetric exponent choice 1/2, then ``draws`` seeded
    random (xi, exponents) draws.  Reports the first candidate that
    satisfies the criterion, else the first with the smallest worst row
    residual.
    """
    form = discrete_delay_form(model, grid_points)
    cert = find_weights(model, grid_points=min(grid_points, SPLIT_SEED_GRID))
    return _split_sup_search(model, form, alpha, draws, seed, cert)


def _split_sup_search(model: NetworkModel, form: DiscreteDelayForm, alpha: float, draws: int,
                      seed: int, cert: Certificate | None) -> CriterionReport:
    """:func:`search_split_sup_criterion` with the sup form and the seed weights found."""
    n = model.n
    fixed = [np.ones(n)] + ([cert.xi] if cert is not None else [])
    # per-column bounds: each draw takes xi, then a_exp, then b_exp from the stream
    parts = [n, n * n, n * n]
    u = np.random.default_rng(seed).uniform(np.repeat([-1.5, 0.05, 0.05], parts),
                                            np.repeat([1.5, 0.95, 0.95], parts),
                                            size=(draws, sum(parts)))
    half = np.full((len(fixed), n, n), 0.5)
    xi = np.vstack(fixed + [np.exp(u[:, :n])])
    a_exp = np.concatenate([half, u[:, n:n + n * n].reshape(-1, n, n)])
    b_exp = np.concatenate([half, u[:, n + n * n:].reshape(-1, n, n)])
    rows = _split_sup_rows(model, form, alpha, xi, a_exp, b_exp)
    worst = rows.max(axis=1)
    k = np.argmin(np.where(worst <= -STRICT_TOL, -np.inf, worst))  # first hit, else first min
    return _split_sup_report(rows[k], xi[k], alpha, a_exp[k], b_exp[k])


def _period_scaled_report(model: NetworkModel, form: DiscreteDelayForm) -> CriterionReport:
    amp = 1.0 + form.d_inf * model.omega
    rows = (-form.d_inf
            + amp * (form.a_sup * _lipschitz(model.g)[None, :]).sum(axis=1)
            + amp * (form.b_sup * _lipschitz(model.f)[None, :]).sum(axis=1))
    return _report("sup-period-scaled", rows)


def check_period_scaled_criterion(model: NetworkModel,
                                  grid_points: int = 4096) -> CriterionReport:
    """Sup criterion with gains amplified by (1 + d_i * omega)."""
    return _period_scaled_report(model, discrete_delay_form(model, grid_points))


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


def pointwise_report(model: NetworkModel, grid_points: int = 4096) -> CriterionReport:
    """CriterionReport wrapper around the weight search."""
    return _pointwise_report(model, find_weights(model, grid_points=grid_points), grid_points)


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
