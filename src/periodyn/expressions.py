"""Closed-form periodic scalar expressions.

An expression is a finite sum of primitive trigonometric terms, each of the
form ``c * fn(k*pi*t)`` with integer frequency ``k``.  Keeping coefficients in
closed form (instead of sampled grids) lets the certification code evaluate
them exactly at arbitrary times and derive exact rational periods, so no
interpolation error leaks into certificates.

:class:`PeriodicExpr` evaluates one expression; :class:`TermTable` compiles
many into a table of term slots and evaluates them all on a time array in a
few numpy calls, with the same bits as ``PeriodicExpr.eval``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# per kind but const: fn(x) = post(wave(x)), the one formula that Term.eval and
# TermTable share, and the period of fn(k*pi*t) in multiples of 1/k
_KINDS = {
    "sin": (np.sin, None, 2),
    "cos": (np.cos, None, 2),
    "sin2": (np.sin, np.square, 1),
    "cos2": (np.cos, np.square, 1),
    "abs_sin": (np.sin, np.abs, 1),
    "abs_cos": (np.cos, np.abs, 1),
}

TERM_KINDS = ("const", *_KINDS)

# values per block of TermTable.eval and .bounds (512 KB): bounds the memory of a long grid
_BLOCK_VALUES = 1 << 16


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
        wave, post, _ = _KINDS[self.kind]
        value = wave((self.k * np.pi) * t)
        return self.c * (value if post is None else post(value))

    def period(self) -> Fraction | None:
        """Exact period of this term, or None for constants (any period)."""
        if self.kind == "const":
            return None
        return Fraction(_KINDS[self.kind][2], self.k)


@dataclass(frozen=True)
class PeriodicExpr:
    """Sum of primitive periodic terms; the empty sum is identically zero."""

    terms: tuple[Term, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def eval(self, t):
        """Evaluate at scalar or ndarray ``t``; scalar in, float out."""
        acc = np.zeros_like(t, dtype=float) if isinstance(t, np.ndarray) else 0.0
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
        """True if this expression repeats with period ``omega`` (see :func:`_divides`)."""
        return _divides(omega, self.period(), rel_tol)


def _divides(omega: float, period: Fraction | None, rel_tol: float = 1e-9) -> bool:
    """True if ``omega`` is a multiple >= 1 of ``period`` (None: any) to relative ``rel_tol``.

    The ratio is that of ``Fraction(omega)``: ``rel_tol = 0`` asks for an exact multiple.
    """
    if period is None:
        return True
    ratio = Fraction(omega) / period
    return round(ratio) >= 1 and abs(ratio - round(ratio)) <= rel_tol * max(1, ratio)


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


class TermTable:
    """Named groups of expressions compiled for evaluation on whole time arrays.

    Each distinct basis ``fn(k*pi*t)`` of the table, and the constant 1, is
    evaluated once per block of times.  Term slot ``s`` of a group holds the
    ``s``-th term of every expression that has one, as a basis index and an
    amplitude.  The slots are added to zeros in each expression's own term
    order, so every value has the bits ``PeriodicExpr.eval`` gives at the
    same time.  :meth:`bounds` is the one sampled "for all t" query.
    """

    def __init__(self, groups: dict[str, tuple[PeriodicExpr, ...]]):
        self.groups = {name: tuple(exprs) for name, exprs in groups.items()}
        bases: dict[tuple[str, int], int] = {("const", 0): 0}
        self._slots: dict[str, list] = {}
        for name, exprs in self.groups.items():
            slots: list = []  # per slot: columns, bases and amplitudes
            for e, expr in enumerate(exprs):
                for p, term in enumerate(expr.terms):
                    b = bases.setdefault(("const", 0) if term.kind == "const"
                                         else (term.kind, term.k), len(bases))
                    if p == len(slots):
                        slots.append(([], [], []))
                    cols, base, amp = slots[p]
                    cols.append(e)
                    base.append(b)
                    amp.append(term.c)
            self._slots[name] = [
                (None if len(cols) == len(exprs) else np.array(cols, dtype=np.intp),
                 np.array(base, dtype=np.intp), np.array(amp, dtype=float))
                for cols, base, amp in slots]
        self._width = len(bases)
        self._periods = [Term(kind, 1.0, k).period() for kind, k in bases]  # exact, per basis
        self._kinds = []  # per kind: its basis columns, wave, post and frequencies k*pi
        for kind, (wave, post, _) in _KINDS.items():
            found = [(b, k) for (other, k), b in bases.items() if other == kind]
            if found:
                cols, ks = zip(*found)
                self._kinds.append((np.array(cols), wave, post,
                                    np.array([k * np.pi for k in ks])))

    def _basis(self, t: np.ndarray) -> np.ndarray:
        """(T, bases) values of every basis at the times of 1-d ``t``."""
        out = np.empty((t.size, self._width))
        out[:, 0] = 1.0
        for cols, wave, post, freq in self._kinds:
            value = wave(t[:, None] * freq)
            out[:, cols] = value if post is None else post(value)
        return out

    def eval(self, t, names=None) -> dict[str, np.ndarray]:
        """The named groups (all by default) at scalar or array ``t``.

        Each group's values are one C-contiguous (*t.shape, len(group)) array.
        They are filled a block of times at a time, so the scratch arrays of
        a group hold at most ``_BLOCK_VALUES`` values however long ``t`` is.
        """
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        names = tuple(self.groups) if names is None else tuple(names)
        out = {name: np.empty((flat.size, len(self.groups[name]))) for name in names}
        widest = max((len(self.groups[name]) for name in names), default=0)
        rows = max(1, _BLOCK_VALUES // max(widest, 1))
        for start in range(0, flat.size, rows):
            basis = self._basis(flat[start:start + rows])
            for name in names:
                _fill(out[name][start:start + rows], basis, self._slots[name])
        return {name: values.reshape(t.shape + values.shape[1:]) for name, values in out.items()}

    def bounds(self, t: np.ndarray, names) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """``(least, greatest)`` of every expression of the named groups on the 1-d grid ``t``.

        It reduces :meth:`eval` of blocks of at most ``_BLOCK_VALUES`` values in
        all (one time at least), so a long grid needs bounded memory.  An empty
        ``t`` raises ValueError: it has no least value.
        """
        if t.size == 0:
            raise ValueError("a grid needs at least one time")
        out = {name: (np.full(len(self.groups[name]), math.inf),
                      np.full(len(self.groups[name]), -math.inf)) for name in names}
        rows = max(1, _BLOCK_VALUES // max(sum(len(self.groups[name]) for name in names), 1))
        for start in range(0, t.size, rows):
            for name, values in self.eval(t[start:start + rows], names).items():
                np.minimum(out[name][0], values.min(axis=0), out=out[name][0])
                np.maximum(out[name][1], values.max(axis=0), out=out[name][1])
        return out

    def divides_period(self, omega: float, rel_tol: float = 1e-9) -> dict[str, np.ndarray]:
        """``PeriodicExpr.divides_period(omega, rel_tol)`` of every expression, per group.

        An expression repeats with period ``omega`` when every basis it reads
        does, so the answers of the bases are ANDed over its term slots.
        """
        ok = np.array([_divides(omega, p, rel_tol) for p in self._periods])
        out = {}
        for name, exprs in self.groups.items():
            out[name] = every = np.ones(len(exprs), dtype=bool)
            for cols, base, _ in self._slots[name]:
                every[slice(None) if cols is None else cols] &= ok[base]
        return out


def _fill(values: np.ndarray, basis: np.ndarray, slots: list) -> None:
    """Sum the term slots into ``values`` (times by expressions), from zero in term order."""
    if slots and slots[0][0] is None:
        # every expression has a first term: start from it, and adding zero
        # turns its -0.0 into the 0.0 that 0.0 + term gives
        _, base, amp = slots[0]
        # the indices are in range; "clip" lets take write straight into values
        np.take(basis, base, axis=1, out=values, mode="clip")
        values *= amp
        values += 0.0
        slots = slots[1:]
    else:
        values[...] = 0.0
    for cols, base, amp in slots:
        term = np.take(basis, base, axis=1)
        term *= amp
        if cols is None:
            values += term
        else:
            values[:, cols] += term
