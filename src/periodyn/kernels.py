"""Delay kernels: atoms plus an optional distributed density.

A kernel represents the measure that distributes delayed feedback over past
times.  Atoms give discrete delays (weight expressions evaluated at the
current time), densities give distributed delays.  The certification code
needs the exponentially weighted moment of the absolute measure, whose value
at rate zero is the total variation; it is computed in closed form wherever
the shape allows it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import PeriodicExpr

_DEFAULT_QUAD_INTERVALS = 4096
TAIL_TOL = 1e-8  # densities of infinite support are cut where their tail mass falls below this


@dataclass(frozen=True)
class ExponentialDensity:
    """Density lam * exp(-lam*s) on [0, inf); unit absolute mass."""

    lam: float

    def __post_init__(self):
        if not (self.lam > 0.0):
            raise ValueError("exponential density requires lam > 0")

    def exp_abs_moment(self, alpha: float) -> tuple[float, bool]:
        if alpha >= self.lam:
            return math.inf, False
        return self.lam / (self.lam - alpha), True

    def cutoff(self, tail_tol: float) -> float:
        return math.log(1.0 / tail_tol) / self.lam

    def eval(self, s):
        return np.where(s >= 0.0, self.lam * np.exp(-self.lam * np.asarray(s, dtype=float)), 0.0)


@dataclass(frozen=True)
class UniformDensity:
    """Density 1/width on [0, width]; unit absolute mass."""

    width: float

    def __post_init__(self):
        if not (self.width > 0.0):
            raise ValueError("uniform density requires width > 0")

    def exp_abs_moment(self, alpha: float) -> tuple[float, bool]:
        if alpha == 0.0:
            return 1.0, True
        x = alpha * self.width
        return math.expm1(x) / x, True

    def cutoff(self, tail_tol: float) -> float:
        return self.width

    def eval(self, s):
        s = np.asarray(s, dtype=float)
        return np.where((s >= 0.0) & (s <= self.width), 1.0 / self.width, 0.0)


@dataclass(frozen=True)
class TableDensity:
    """Tabulated density on [0, S] with linear interpolation between knots."""

    s: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "s", tuple(float(x) for x in self.s))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.s) < 2 or len(self.s) != len(self.values):
            raise ValueError("table density needs matching s/values with at least two knots")
        if self.s[0] < 0.0 or any(b <= a for a, b in zip(self.s, self.s[1:])):
            raise ValueError("table knots must be nonnegative and strictly increasing")

    def _segments(self):
        """Linear pieces split at sign changes, yielding (s0, s1, v0, v1)."""
        for (s0, s1, v0, v1) in zip(self.s, self.s[1:], self.values, self.values[1:]):
            if v0 * v1 < 0.0:
                sz = s0 + (s1 - s0) * v0 / (v0 - v1)
                yield s0, sz, v0, 0.0
                yield sz, s1, 0.0, v1
            else:
                yield s0, s1, v0, v1

    def exp_abs_moment(self, alpha: float) -> tuple[float, bool]:
        total = 0.0
        for s0, s1, v0, v1 in self._segments():
            total += _exp_linear_integral(alpha, s0, s1, abs(v0), abs(v1))
        return total, True

    def cutoff(self, tail_tol: float) -> float:
        return self.s[-1]

    def eval(self, s):
        s = np.asarray(s, dtype=float)
        out = np.interp(s, self.s, self.values, left=0.0, right=0.0)
        return np.where((s >= self.s[0]) & (s <= self.s[-1]), out, 0.0)


def _exp_linear_integral(alpha: float, s0: float, s1: float, v0: float, v1: float) -> float:
    """Integral of exp(alpha*s) * linear(v0 -> v1) over [s0, s1], exactly."""
    delta = s1 - s0
    if delta <= 0.0:
        return 0.0
    if alpha == 0.0:
        return 0.5 * (v0 + v1) * delta
    x = alpha * delta
    # int_0^D e^{au} du and int_0^D u e^{au} du, scaled via expm1 for stability
    i0 = delta * math.expm1(x) / x
    i1 = (delta * math.exp(x) - i0) / alpha
    slope = (v1 - v0) / delta
    return math.exp(alpha * s0) * (v0 * i0 + slope * i1)


Density = ExponentialDensity | UniformDensity | TableDensity

# the density shapes a config names: name -> class, whose dataclass fields are its config fields
DENSITIES = {"exponential": ExponentialDensity, "uniform": UniformDensity, "table": TableDensity}


@dataclass(frozen=True)
class Atom:
    """Point mass at lag ``s`` with a time-dependent weight."""

    s: float
    weight: PeriodicExpr

    def __post_init__(self):
        if self.s < 0.0 or not math.isfinite(self.s):
            raise ValueError("atom location must be finite and nonnegative")


@dataclass(frozen=True)
class DistributedPart:
    shape: Density
    weight: PeriodicExpr


@dataclass(frozen=True)
class DelayKernel:
    """Atoms plus an optional weighted density; the empty kernel is zero."""

    atoms: tuple[Atom, ...] = ()
    density: DistributedPart | None = None

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        locs = [a.s for a in self.atoms]
        if any(b <= a for a, b in zip(locs, locs[1:])):
            raise ValueError("atom locations must be strictly increasing")

    @property
    def is_zero(self) -> bool:
        return not self.atoms and self.density is None

    @property
    def parts(self) -> tuple:
        """The atoms, then the density part if there is one: the one part order."""
        return self.atoms if self.density is None else self.atoms + (self.density,)


def part_mass(part: Atom | DistributedPart, alpha: float) -> tuple[float, bool]:
    """(mass, finite) of one kernel part at rate alpha.

    An atom at lag s weighs e^{alpha s}, a density its exponential absolute
    moment, not finite where that diverges.  Either is inf past the float range.
    """
    try:
        if isinstance(part, Atom):
            return math.exp(alpha * part.s), True
        return part.shape.exp_abs_moment(alpha)
    except OverflowError:
        return math.inf, True


def part_gain(weight, mass) -> np.ndarray:
    """|weight| * mass (one mass, or one per column), and 0 where the weight is 0 at any mass."""
    w = np.abs(weight)
    if not np.isinf(mass).any():
        w *= mass  # in place: one block-sized array less
        return w
    with np.errstate(invalid="ignore"):  # the 0 * inf that np.where then drops
        return np.where(w != 0.0, w * mass, 0.0)


def simpson_rule(shape: Density, tail_tol: float = TAIL_TOL,
                 step: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Simpson for ``density(s) * lookup(s)`` on [0, cutoff].

    The weights carry the density values, so ``weights @ lookup(nodes)`` is
    the quadrature.  Infinite-support shapes are truncated where the
    remaining tail mass drops below ``tail_tol``, bounding the truncation
    error by ``tail_tol * sup |lookup|``.  The node spacing never exceeds
    ``step`` when given (callers pass the integrator step to keep
    consistency).
    """
    s_cut = shape.cutoff(tail_tol)
    if step is None:
        n = _DEFAULT_QUAD_INTERVALS
    else:
        n = max(2, int(math.ceil(s_cut / step)))
        n += n % 2
    nodes = np.linspace(0.0, s_cut, n + 1)
    coef = np.full(n + 1, 2.0)
    coef[1::2] = 4.0
    coef[0] = coef[-1] = 1.0
    return nodes, (s_cut / n / 3.0) * coef * shape.eval(nodes)
