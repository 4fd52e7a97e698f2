"""Network model: periodic coefficients, delay kernels, activations.

The model represents coupled units

    du_i/dt = -d_i(t) u_i + sum_j a_ij(t) g_j(u_j)
              + sum_j int_0^inf f_j(u_j(t - tau_ij(t) - s)) dK_ij(t, s) + I_i(t)

with all coefficients periodic with a common declared period ``omega``.
Activations carry explicit growth/Lipschitz constants that the validator
verifies by dense sampling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import PeriodicExpr, const, expr_sum, term_expr
from .kernels import Atom, DelayKernel

_E_INV = math.exp(-1.0)


@dataclass(frozen=True)
class Activation:
    """Scalar activation with declared growth bound |f(s)| <= lip*|s| + off."""

    kind: str
    lipschitz: float
    offset: float = 0.0
    slope: float = 1.0
    cap: float = 1.0

    _KINDS = ("tanh", "arctan", "identity", "satlin", "zero")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.lipschitz < 0.0 or self.offset < 0.0:
            raise ValueError("activation constants must be nonnegative")

    @classmethod
    def tanh(cls) -> "Activation":
        return cls("tanh", 1.0, 0.0)

    @classmethod
    def arctan(cls) -> "Activation":
        return cls("arctan", 1.0, 0.0)

    @classmethod
    def identity(cls) -> "Activation":
        return cls("identity", 1.0, 0.0)

    @classmethod
    def zero(cls) -> "Activation":
        return cls("zero", 0.0, 0.0)

    @classmethod
    def saturating(cls, slope: float, cap: float) -> "Activation":
        if slope < 0.0 or cap <= 0.0:
            raise ValueError("saturating activation needs slope >= 0 and cap > 0")
        return cls("satlin", slope, 0.0, slope=slope, cap=cap)

    def __call__(self, x):
        if self.kind == "tanh":
            return np.tanh(x)
        if self.kind == "arctan":
            return np.arctan(x)
        if self.kind == "identity":
            return x
        if self.kind == "zero":
            return np.zeros_like(x)
        return np.clip(self.slope * x, -self.cap, self.cap)


ConstantVector = tuple[float, ...]


@dataclass(frozen=True)
class ConstantIC:
    """History identically equal to a constant vector on (-inf, 0]."""

    values: ConstantVector

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @property
    def n(self) -> int:
        return len(self.values)

    def eval(self, t: float) -> np.ndarray:
        return np.array(self.values, dtype=float)

    def eval_component(self, t: float, j: int) -> float:
        return self.values[j]

    def derivative_component(self, t: float, j: int) -> float:
        return 0.0


@dataclass(frozen=True)
class ExprIC:
    """History given by one periodic expression per coordinate."""

    exprs: tuple[PeriodicExpr, ...]

    @property
    def n(self) -> int:
        return len(self.exprs)

    def eval(self, t: float) -> np.ndarray:
        return np.array([e.eval(t) for e in self.exprs], dtype=float)

    def eval_component(self, t: float, j: int) -> float:
        return float(self.exprs[j].eval(t))

    def derivative_component(self, t: float, j: int, dt: float = 1e-6) -> float:
        e = self.exprs[j]
        return (e.eval(t + dt) - e.eval(t - dt)) / (2.0 * dt)


class HermiteNodes:
    """Cubic Hermite dense output on uniform nodes ``start + k*step``.

    Row k of ``values`` and ``derivs`` holds the state and its slope at node
    k; between two nodes the state is the cubic matching both ends, the
    continuous extension of Bellen & Zennaro, *Numerical Methods for Delay
    Differential Equations* (2003).  Subclasses provide ``step``, ``values``,
    ``derivs`` and, for the default :meth:`_locate`, ``start``; each decides
    what a time outside the nodes means.
    """

    def _locate(self, t):
        """Interval and offset of ``t`` (scalar or array); the end cubics extend past the nodes."""
        x = (t - self.start) / self.step
        idx = np.clip(np.floor(x), 0, self.values.shape[0] - 2).astype(np.intp)
        return idx, x - idx

    def _ends(self, idx, col):
        """Values and slopes at both ends of interval ``idx`` for units ``col``."""
        y, m = self.values, self.derivs
        return y[idx, col], y[idx + 1, col], m[idx, col], m[idx + 1, col]

    @staticmethod
    def _basis(theta):
        """Hermite basis (h01, h10, h11) of y1, m0 and m1 at offset ``theta``.

        The basis of y0 is 1 - h01, exactly, so :meth:`_blend` forms it.
        """
        t2 = theta * theta
        h11 = t2 * (theta - 1.0)
        return t2 - (h11 + h11), (h11 - t2) + theta, h11

    def _blend(self, ends, basis):
        """Cubic from interval ends (y0, y1, m0, m1) and a :meth:`_basis`."""
        y0, y1, m0, m1 = ends
        h01, h10, h11 = basis
        return (1.0 - h01) * y0 + h01 * y1 + self.step * (h10 * m0 + h11 * m1)

    def _value(self, idx: int, theta: float, col=slice(None)):
        """State at offset ``theta`` into interval ``idx``; ``col`` picks units.

        ``idx``, ``theta`` and ``col`` may be arrays of one shape: one gather
        then evaluates many (interval, unit) pairs.
        """
        return self._blend(self._ends(idx, col), self._basis(theta))

    def _slope(self, idx: int, theta: float, col=slice(None)):
        """Time derivative of :meth:`_value`."""
        y0, y1, m0, m1 = self._ends(idx, col)
        t2 = theta * theta
        return ((6.0 * t2 - 6.0 * theta) * (y0 - y1) / self.step
                + (3.0 * t2 - 4.0 * theta + 1.0) * m0
                + (3.0 * t2 - 2.0 * theta) * m1)


@dataclass(frozen=True)
class SampledIC(HermiteNodes):
    """History sampled on a uniform grid ending at 0, constant before it.

    Stores values and derivatives so cubic Hermite evaluation keeps the
    accuracy of the dense output it was extracted from.
    """

    start: float
    step: float
    values: np.ndarray
    derivs: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        derivs = np.asarray(self.derivs, dtype=float)
        if values.ndim != 2 or values.shape != derivs.shape or values.shape[0] < 2:
            raise ValueError("sampled history needs matching 2-d values/derivs")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivs", derivs)

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def end(self) -> float:
        return self.start + (self.values.shape[0] - 1) * self.step

    def eval(self, t: float) -> np.ndarray:
        if t <= self.start:
            return self.values[0].copy()
        return self._value(*self._locate(t))

    def eval_component(self, t: float, j: int) -> float:
        if t <= self.start:
            return float(self.values[0, j])
        return float(self._value(*self._locate(t), j))

    def derivative_component(self, t: float, j: int) -> float:
        if t <= self.start:
            return 0.0
        return float(self._slope(*self._locate(t), j))


InitialCondition = ConstantIC | ExprIC | SampledIC


@dataclass(frozen=True)
class NetworkModel:
    """Full periodic delayed network; immutable and safe to share."""

    n: int
    omega: float
    d: tuple[PeriodicExpr, ...]
    a: tuple[tuple[PeriodicExpr, ...], ...]
    kernels: tuple[tuple[DelayKernel, ...], ...]
    tau: tuple[tuple[PeriodicExpr, ...], ...]
    inputs: tuple[PeriodicExpr, ...]
    g: tuple[Activation, ...]
    f: tuple[Activation, ...]

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("dimension must be positive")
        if not (self.omega > 0.0):
            raise ValueError("period must be positive")
        object.__setattr__(self, "d", tuple(self.d))
        object.__setattr__(self, "a", tuple(tuple(row) for row in self.a))
        object.__setattr__(self, "kernels", tuple(tuple(row) for row in self.kernels))
        object.__setattr__(self, "tau", tuple(tuple(row) for row in self.tau))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "g", tuple(self.g))
        object.__setattr__(self, "f", tuple(self.f))
        for name, seq in (("d", self.d), ("inputs", self.inputs),
                          ("g", self.g), ("f", self.f)):
            if len(seq) != n:
                raise ValueError(f"{name} must have length {n}")
        for name, mat in (("a", self.a), ("kernels", self.kernels), ("tau", self.tau)):
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValueError(f"{name} must be an {n}x{n} matrix")

    @functools.lru_cache(maxsize=8)
    def max_lag(self, tail_tol: float = 1e-8, grid_points: int = 4096) -> float:
        """Longest delay plus kernel lag, with each delay's sup sampled on ``grid_points`` times.

        A sampled bound, not what sizes a run's history: the integrator and the
        period map's window take their reach from the read plan's samples.
        """
        t = np.linspace(0.0, self.omega, grid_points, endpoint=False)
        lag = 0.0
        for i in range(self.n):
            for j in range(self.n):
                if self.kernels[i][j].is_zero:
                    continue
                tau_sup = float(np.max(self.tau[i][j].eval(t)))
                lag = max(lag, tau_sup + self.kernels[i][j].max_lag(tail_tol))
        return lag


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class SampledModel:
    """Every coefficient of a model evaluated once on an array of times.

    Time axes come first and the arrays are read-only: ``d`` and ``inputs``
    are (*T, n), ``a`` and ``tau`` (*T, n, n).  ``kernel_parts`` lists every
    atom and density as (i, j, part), in row-major order of the pairs and
    each kernel's atoms before its density, and ``kernel_weights`` (*T, K)
    holds their weights, one column per part.  Certification and integration
    read the coefficients only from here.
    """

    def __init__(self, model: NetworkModel, t):
        t = _read_only(np.array(t, dtype=float))

        def vector(exprs) -> np.ndarray:
            return _read_only(np.stack([expr.eval(t) for expr in exprs], axis=-1))

        self.model = model
        self.t = t
        self.d = vector(model.d)
        self.inputs = vector(model.inputs)
        self.a = _read_only(np.stack([vector(row) for row in model.a], axis=-2))
        self.tau = _read_only(np.stack([vector(row) for row in model.tau], axis=-2))
        self.kernel_parts = tuple(
            (i, j, part) for i, row in enumerate(model.kernels) for j, kern in enumerate(row)
            for part in kern.atoms + (() if kern.density is None else (kern.density,)))
        weights = np.empty(t.shape + (len(self.kernel_parts),))
        for k, (_, _, part) in enumerate(self.kernel_parts):
            weights[..., k] = part.weight.eval(t)
        self.kernel_weights = _read_only(weights)


@functools.lru_cache(maxsize=8)
def sampled(model: NetworkModel, count: int, step: float) -> SampledModel:
    """The model sampled at ``arange(count) * step``, remembered per grid.

    Certification samples one period at its grid, integration one period at
    half steps; each command then reads one sampling in all its stages.
    """
    return SampledModel(model, np.arange(count) * step)


def eval_coefficients(model: NetworkModel, t: float) -> SampledModel:
    """Evaluate all coefficient expressions at one time; pure and deterministic."""
    return SampledModel(model, float(t))


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


def _check_periodic(report: ValidationReport, name: str, expr: PeriodicExpr,
                    omega: float, t_check: np.ndarray) -> None:
    if not expr.divides_period(omega):
        report.add(f"{name}: period {expr.period()} does not divide omega={omega}")
        return
    v0 = expr.eval(t_check)
    v1 = expr.eval(t_check + omega)
    bad = np.abs(v1 - v0) > 1e-12 * (1.0 + np.abs(v0))
    if bad.any():
        k = int(np.argmax(bad))
        report.add(f"{name}: not periodic with omega={omega} at t={t_check[k]:.6g}")


def _activation_violations(act: Activation, rng: np.random.Generator) -> list[str]:
    """Growth and Lipschitz bounds checked on dense and random samples."""
    out = []
    s = np.linspace(-100.0, 100.0, 100_001)
    excess = np.abs(act(s)) - (act.lipschitz * np.abs(s) + act.offset)
    if excess.max() > 1e-9:
        out.append(f"growth bound violated (excess {excess.max():.3g})")
    x = rng.uniform(-50.0, 50.0, size=20_000)
    h = rng.uniform(-5.0, 5.0, size=20_000)
    lip_excess = np.abs(act(x + h) - act(x)) - act.lipschitz * np.abs(h)
    if lip_excess.max() > 1e-9:
        out.append(f"Lipschitz bound violated (excess {lip_excess.max():.3g})")
    return out


def validate(model: NetworkModel, grid_points: int = 4096, seed: int = 0) -> ValidationReport:
    """Check admissibility; returns violations instead of raising.

    Downstream operations (certification, simulation, orbit search) assume an
    empty report.
    """
    report = ValidationReport()
    n = model.n
    t = np.linspace(0.0, model.omega, grid_points, endpoint=False)
    t_check = np.linspace(0.0, model.omega, 257)[:-1]
    rng = np.random.default_rng(seed)

    for i in range(n):
        _check_periodic(report, f"d[{i}]", model.d[i], model.omega, t_check)
        _check_periodic(report, f"inputs[{i}]", model.inputs[i], model.omega, t_check)
        for j in range(n):
            _check_periodic(report, f"a[{i}][{j}]", model.a[i][j], model.omega, t_check)
            _check_periodic(report, f"tau[{i}][{j}]", model.tau[i][j], model.omega, t_check)
            kern = model.kernels[i][j]
            for k, atom in enumerate(kern.atoms):
                _check_periodic(report, f"kernels[{i}][{j}].atoms[{k}].weight",
                                atom.weight, model.omega, t_check)
            if kern.density is not None:
                _check_periodic(report, f"kernels[{i}][{j}].density.weight",
                                kern.density.weight, model.omega, t_check)

    for i in range(n):
        vals = model.d[i].eval(t)
        if vals.min() <= 0.0:
            k = int(np.argmin(vals))
            report.add(f"d_{i + 1} not positive at t={t[k]:.6g}")
    for i in range(n):
        for j in range(n):
            vals = model.tau[i][j].eval(t)
            if vals.min() < 0.0:
                k = int(np.argmin(vals))
                report.add(f"negative delay tau[{i}][{j}] at t={t[k]:.6g}")

    # each distinct activation is checked once and reported under every index
    checked: dict[Activation, list[str]] = {}
    for i in range(n):
        for name, act in ((f"g[{i}]", model.g[i]), (f"f[{i}]", model.f[i])):
            if act not in checked:
                checked[act] = _activation_violations(act, rng)
            for message in checked[act]:
                report.add(f"{name}: {message}")
    return report


def _atom_kernel(weight: PeriodicExpr, s: float = 0.0) -> DelayKernel:
    return DelayKernel(atoms=(Atom(s, weight),))


def builtin_example() -> NetworkModel:
    """The bundled three-unit benchmark network (period 2).

    Instantaneous couplings are squared trigonometric waves through tanh;
    delayed couplings go through arctan with the three time-varying delays
    |sin(2*pi*t)|, (pi/2)|cos(2*pi*t)| and the constant 1.
    """
    d = (
        expr_sum(const(2.51), term_expr("sin2", 0.5, 1)),
        expr_sum(const(0.91), term_expr("sin2", 0.1, 1), term_expr("sin2", 0.5, 4)),
        expr_sum(const(0.51), term_expr("cos2", 0.2, 1), term_expr("sin2", 0.2, 2),
                 term_expr("sin2", 0.1, 4)),
    )
    a = (
        (term_expr("sin2", 1.0, 2), term_expr("cos2", 1.0, 2), term_expr("sin2", 1.0, 1)),
        (term_expr("sin2", -0.5, 2), term_expr("cos2", 0.2, 4), term_expr("sin2", 0.3, 1)),
        (term_expr("cos2", -0.4, 1), term_expr("sin2", 0.3, 2), term_expr("cos2", 0.2, 4)),
    )
    kernels = (
        (_atom_kernel(term_expr("sin2", _E_INV, 4)),
         _atom_kernel(term_expr("cos2", _E_INV, 4)),
         _atom_kernel(term_expr("cos2", -0.5 * _E_INV, 1))),
        (_atom_kernel(term_expr("sin2", -0.7 * _E_INV, 4)),
         _atom_kernel(term_expr("cos2", 0.5 * _E_INV, 2)),
         _atom_kernel(term_expr("cos2", 0.2 * _E_INV, 1))),
        (_atom_kernel(term_expr("sin2", 0.2 * _E_INV, 1)),
         _atom_kernel(term_expr("cos2", 0.1 * _E_INV, 2)),
         _atom_kernel(term_expr("sin2", 0.3 * _E_INV, 4))),
    )
    tau_row = (term_expr("abs_sin", 1.0, 2), term_expr("abs_cos", math.pi / 2, 2), const(1.0))
    tau = (tau_row, tau_row, tau_row)
    inputs = (
        term_expr("sin", 1.0, 2),
        term_expr("cos", 2.0, 1),
        term_expr("sin", 2.0, 2),
    )
    acts_g = tuple(Activation.tanh() for _ in range(3))
    acts_f = tuple(Activation.arctan() for _ in range(3))
    return NetworkModel(n=3, omega=2.0, d=d, a=a, kernels=kernels, tau=tau,
                        inputs=inputs, g=acts_g, f=acts_f)
