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
from dataclasses import dataclass, field, fields

import numpy as np

from .expressions import PeriodicExpr, TermTable
from .kernels import DelayKernel


# the activations a config names: name -> (function, Lipschitz constant)
ACTIVATIONS = {
    "tanh": (np.tanh, 1.0),
    "arctan": (np.arctan, 1.0),
    "identity": (lambda x: x, 1.0),
    "zero": (np.zeros_like, 0.0),
}


@dataclass(frozen=True)
class Activation:
    """Activation ``kind`` of :data:`ACTIVATIONS`, or ``satlin``: clip(lip*s, -cap, cap).

    Its declared growth bound is |f(s)| <= lip*|s| + off.
    """

    kind: str
    lipschitz: float
    offset: float = 0.0
    cap: float = 1.0

    def __post_init__(self):
        if self.kind not in ACTIVATIONS and self.kind != "satlin":
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.lipschitz < 0.0 or self.offset < 0.0:
            raise ValueError("activation constants must be nonnegative")

    @classmethod
    def tanh(cls) -> "Activation":
        return cls("tanh", ACTIVATIONS["tanh"][1])

    @classmethod
    def arctan(cls) -> "Activation":
        return cls("arctan", ACTIVATIONS["arctan"][1])

    @classmethod
    def identity(cls) -> "Activation":
        return cls("identity", ACTIVATIONS["identity"][1])

    @classmethod
    def zero(cls) -> "Activation":
        return cls("zero", ACTIVATIONS["zero"][1])

    @classmethod
    def saturating(cls, slope: float, cap: float) -> "Activation":
        if slope < 0.0 or cap <= 0.0:
            raise ValueError("saturating activation needs slope >= 0 and cap > 0")
        return cls("satlin", slope, cap=cap)

    def __call__(self, x):
        if self.kind == "satlin":
            return np.clip(self.lipschitz * x, -self.cap, self.cap)
        return ACTIVATIONS[self.kind][0](x)


def _positive_weights(xi, n: int) -> np.ndarray:
    """``xi`` as a float vector; ValueError unless it holds n positive, finite weights."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (n,) or not np.all(np.isfinite(xi) & (xi > 0.0)):
        raise ValueError(f"weights must be {n} positive, finite numbers, got {xi}")
    return xi


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

    def derivative_component(self, t: float, j: int) -> float:
        e, dt = self.exprs[j], 1e-6  # central difference
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

    def _locate(self, t):
        """Times at or before ``start`` read the first node: the history is constant there."""
        return super()._locate(np.maximum(t, self.start))

    def eval(self, t: float) -> np.ndarray:
        return self._value(*self._locate(t))

    def eval_component(self, t: float, j: int) -> float:
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

    def __hash__(self) -> int:
        # the dataclass hash of the fields, computed once: every lookup in a
        # model-keyed cache would otherwise rehash every expression
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # str hashes differ between processes, so a pickle leaves the hash out
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _kernel_parts(model: NetworkModel) -> tuple:
    """(i, j, part) of every atom and density: pairs row-major, each kernel's atoms first."""
    return tuple((i, j, part) for i, row in enumerate(model.kernels) for j, kern in enumerate(row)
                 for part in kern.parts)


@functools.lru_cache(maxsize=8)
def coefficient_table(model: NetworkModel) -> TermTable:
    """Every coefficient expression of ``model`` compiled into one :class:`TermTable`.

    Its groups are ``d``, ``inputs``, ``a`` and ``tau`` (row-major) and
    ``weights``, one per entry of :func:`_kernel_parts`.
    """
    return TermTable({
        "d": model.d,
        "inputs": model.inputs,
        "a": tuple(e for row in model.a for e in row),
        "tau": tuple(e for row in model.tau for e in row),
        "weights": tuple(part.weight for _, _, part in _kernel_parts(model)),
    })


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class SampledModel:
    """Every coefficient of a model evaluated once on an array of times.

    Time axes come first and the arrays are C-contiguous and read-only:
    ``d`` and ``inputs`` are (*T, n), ``a`` and ``tau`` (*T, n, n).
    ``kernel_parts`` lists every atom and density as (i, j, part), in
    row-major order of the pairs and each kernel's atoms before its density,
    and ``kernel_weights`` (*T, K) holds their weights, one column per part.
    All of them come from one evaluation of :func:`coefficient_table`, with
    the bits of ``PeriodicExpr.eval``.  Certification and integration read
    the coefficients only from here.
    """

    def __init__(self, model: NetworkModel, t):
        t = _read_only(np.array(t, dtype=float))
        values = coefficient_table(model).eval(t)
        square = t.shape + (model.n, model.n)
        self.model = model
        self.t = t
        self.d = _read_only(values["d"])
        self.inputs = _read_only(values["inputs"])
        self.a = _read_only(values["a"].reshape(square))
        self.tau = _read_only(values["tau"].reshape(square))
        self.kernel_parts = _kernel_parts(model)
        self.kernel_weights = _read_only(values["weights"])


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


def _coefficient_names(model: NetworkModel):
    """(group, column, name) of every coefficient of :func:`coefficient_table`, in report order."""
    n = model.n
    part = 0
    for i in range(n):
        yield "d", i, f"d[{i}]"
        yield "inputs", i, f"inputs[{i}]"
        for j in range(n):
            yield "a", i * n + j, f"a[{i}][{j}]"
            yield "tau", i * n + j, f"tau[{i}][{j}]"
            kern = model.kernels[i][j]
            for k, p in enumerate(kern.parts):
                where = "density" if p is kern.density else f"atoms[{k}]"
                yield "weights", part, f"kernels[{i}][{j}].{where}.weight"
                part += 1


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


def validate(model: NetworkModel, grid_points: int = 4096) -> ValidationReport:
    """Check admissibility; returns violations instead of raising.

    Every coefficient must repeat with period ``omega``: a multiple of the
    exact period of every basis it reads.  Where it is one only within the
    tolerance of ``divides_period``, its values on 256 samples must also equal
    those one period later.  ``d`` must be positive and ``tau`` nonnegative on
    ``grid_points`` times: their least values come from one
    ``TermTable.bounds`` of :func:`coefficient_table`, and a violation is
    reported at the first time its expression takes its least value there.
    Activations are checked on dense and seeded random samples.  Downstream
    operations (certification, simulation, orbit search) assume an empty report.
    """
    report = ValidationReport()
    n = model.n
    omega = model.omega
    table = coefficient_table(model)
    rng = np.random.default_rng(0)

    # periodicity: the exact periods, then samples one period apart of the inexact multiples
    divides = table.divides_period(omega)
    exact = table.divides_period(omega, rel_tol=0.0)
    if not all(ok.all() for ok in exact.values()):
        t_check = np.linspace(0.0, omega, 257)[:-1]
        for name, col, label in _coefficient_names(model):
            expr = table.groups[name][col]
            if not divides[name][col]:
                report.add(f"{label}: period {expr.period()} does not divide omega={omega}")
            elif not exact[name][col]:
                v0, v1 = expr.eval(np.stack([t_check, t_check + omega]))
                bad = np.abs(v1 - v0) > 1e-12 * (1.0 + np.abs(v0))
                if bad.any():
                    report.add(f"{label}: not periodic with omega={omega} "
                               f"at t={t_check[bad.argmax()]:.6g}")

    # least d and tau on the grid, each violation at the first time of its least value
    t = np.linspace(0.0, omega, grid_points, endpoint=False)
    bounds = table.bounds(t, ("d", "tau"))

    def first_least(name: str, col) -> float:
        return t[np.argmin(table.groups[name][col].eval(t))]

    for i in np.flatnonzero(bounds["d"][0] <= 0.0):
        report.add(f"d_{i + 1} not positive at t={first_least('d', i):.6g}")
    for p in np.flatnonzero(bounds["tau"][0] < 0.0):
        i, j = divmod(int(p), n)
        report.add(f"negative delay tau[{i}][{j}] at t={first_least('tau', p):.6g}")

    # each distinct activation is checked once and reported under every index
    checked: dict[Activation, list[str]] = {}
    for i in range(n):
        for name, act in ((f"g[{i}]", model.g[i]), (f"f[{i}]", model.f[i])):
            if act not in checked:
                checked[act] = _activation_violations(act, rng)
            for message in checked[act]:
                report.add(f"{name}: {message}")
    return report


def builtin_example() -> NetworkModel:
    """The bundled three-unit benchmark network (period 2), parsed from its config file.

    Instantaneous couplings are squared trigonometric waves through tanh;
    delayed couplings go through arctan with the three time-varying delays
    |sin(2*pi*t)|, (pi/2)|cos(2*pi*t)| and the constant 1.
    """
    from .config import builtin_config_path, parse_config  # here, as config imports this module
    with open(builtin_config_path(), encoding="utf-8") as fh:
        return parse_config(fh.read())
