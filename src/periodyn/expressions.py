"""Closed-form periodic scalar expressions.

An expression is a finite sum of primitive trigonometric terms, each of the
form ``c * fn(k*pi*t)`` with integer frequency ``k``.  Keeping coefficients in
closed form (instead of sampled grids) lets the certification code evaluate
them exactly at arbitrary times and derive exact rational periods, so no
interpolation error leaks into certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

TERM_KINDS = ("const", "sin", "cos", "sin2", "cos2", "abs_sin", "abs_cos")

# period of fn(k*pi*t) in multiples of 1/k
_KIND_PERIOD_NUM = {
    "sin": 2,
    "cos": 2,
    "sin2": 1,
    "cos2": 1,
    "abs_sin": 1,
    "abs_cos": 1,
}


@dataclass(frozen=True)
class Term:
    """One primitive term ``c * fn(k*pi*t)``; kind ``const`` ignores ``k``."""

    kind: str
    c: float
    k: int = 0

    def __post_init__(self):
        if self.kind not in TERM_KINDS:
            raise ValueError(f"unknown term kind {self.kind!r}")
        if self.kind != "const" and (int(self.k) != self.k or self.k <= 0):
            raise ValueError(f"term frequency must be a positive integer, got {self.k!r}")
        if not math.isfinite(self.c):
            raise ValueError("term amplitude must be finite")

    def eval(self, t):
        if self.kind == "const":
            return self.c * np.ones_like(t) if isinstance(t, np.ndarray) else self.c
        arg = (self.k * np.pi) * t
        if self.kind == "sin":
            return self.c * np.sin(arg)
        if self.kind == "cos":
            return self.c * np.cos(arg)
        if self.kind == "sin2":
            return self.c * np.sin(arg) ** 2
        if self.kind == "cos2":
            return self.c * np.cos(arg) ** 2
        if self.kind == "abs_sin":
            return self.c * np.abs(np.sin(arg))
        return self.c * np.abs(np.cos(arg))

    def period(self) -> Fraction | None:
        """Exact period of this term, or None for constants (any period)."""
        if self.kind == "const":
            return None
        return Fraction(_KIND_PERIOD_NUM[self.kind], self.k)


@dataclass(frozen=True)
class PeriodicExpr:
    """Sum of primitive periodic terms; the empty sum is identically zero."""

    terms: tuple[Term, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def eval(self, t):
        """Evaluate at scalar or ndarray ``t``; scalar in, float out."""
        if isinstance(t, np.ndarray):
            out = np.zeros_like(t, dtype=float)
            for term in self.terms:
                out += term.eval(t)
            return out
        acc = 0.0
        for term in self.terms:
            acc += term.eval(t)
        return acc

    def period(self) -> Fraction | None:
        """Least common period of the terms (exact), or None if constant."""
        periods = [p for p in (term.period() for term in self.terms) if p is not None]
        if not periods:
            return None
        num = periods[0].numerator
        den = periods[0].denominator
        for p in periods[1:]:
            num = num * p.numerator // math.gcd(num, p.numerator)
            den = math.gcd(den, p.denominator)
        return Fraction(num, den)

    def divides_period(self, omega: float, rel_tol: float = 1e-9) -> bool:
        """True if this expression repeats with period ``omega``."""
        p = self.period()
        if p is None:
            return True
        ratio = omega / float(p)
        return abs(ratio - round(ratio)) <= rel_tol * max(1.0, abs(ratio)) and round(ratio) >= 1


ZERO = PeriodicExpr(())


def const(c: float) -> PeriodicExpr:
    if c == 0.0:
        return ZERO
    return PeriodicExpr((Term("const", float(c)),))


def term_expr(kind: str, c: float, k: int = 0) -> PeriodicExpr:
    return PeriodicExpr((Term(kind, float(c), k),))


def expr_sum(*parts: PeriodicExpr) -> PeriodicExpr:
    terms: list[Term] = []
    for part in parts:
        terms.extend(part.terms)
    return PeriodicExpr(tuple(terms))
