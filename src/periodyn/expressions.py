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

# fn(x) = post(wave(x)) of every kind but const: the one formula that Term.eval
# and TermTable share
_KIND_FN = {
    "sin": (np.sin, None),
    "cos": (np.cos, None),
    "sin2": (np.sin, np.square),
    "cos2": (np.cos, np.square),
    "abs_sin": (np.sin, np.abs),
    "abs_cos": (np.cos, np.abs),
}

# values per block of TermTable.blocks (512 KB): bounds the memory of a long grid
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
        wave, post = _KIND_FN[self.kind]
        value = wave((self.k * np.pi) * t)
        return self.c * (value if post is None else post(value))

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


class TermTable:
    """Named groups of expressions compiled for evaluation on whole time arrays.

    Each distinct basis ``fn(k*pi*t)`` that the evaluated groups read, and
    the constant 1, is evaluated once per time array.  Term slot ``s`` of a
    group holds the ``s``-th term of every expression that has one, as a
    basis index and an amplitude.  The slots are added to zeros in each
    expression's own term order, so every value has the bits
    ``PeriodicExpr.eval`` gives at the same time.
    """

    def __init__(self, groups: dict[str, tuple[PeriodicExpr, ...]]):
        self.groups = {name: tuple(exprs) for name, exprs in groups.items()}
        bases: dict[tuple[str, int], int] = {("const", 0): 0}
        base_period: list[Fraction | None] = [None]
        period_sets: dict[frozenset, int] = {}  # index of each distinct set of term periods
        self._period_reps: list[PeriodicExpr] = []  # an expression of each set
        self._period_set: dict[str, np.ndarray] = {}  # per group, the set of each expression
        self._slots: dict[str, list] = {}
        for name, exprs in self.groups.items():
            slots: list = []  # per slot: columns, bases and amplitudes
            sets = []
            for e, expr in enumerate(exprs):
                periods = set()
                for p, term in enumerate(expr.terms):
                    key = ("const", 0) if term.kind == "const" else (term.kind, term.k)
                    b = bases.setdefault(key, len(bases))
                    if b == len(base_period):
                        base_period.append(term.period())
                    periods.add(base_period[b])
                    if p == len(slots):
                        slots.append(([], [], []))
                    cols, base, amp = slots[p]
                    cols.append(e)
                    base.append(b)
                    amp.append(term.c)
                periods = frozenset(periods - {None})
                if periods not in period_sets:
                    period_sets[periods] = len(self._period_reps)
                    self._period_reps.append(expr)
                sets.append(period_sets[periods])
            self._period_set[name] = np.array(sets, dtype=np.intp)
            self._slots[name] = [
                (None if len(cols) == len(exprs) else np.array(cols, dtype=np.intp),
                 np.array(base, dtype=np.intp), np.array(amp, dtype=float))
                for cols, base, amp in slots]
        self._width = len(bases)
        self._kinds = []  # per kind: its basis columns, wave, post and frequencies k*pi
        for kind in TERM_KINDS[1:]:
            found = [(b, k) for (other, k), b in bases.items() if other == kind]
            if found:
                cols, ks = zip(*found)
                self._kinds.append((np.array(cols), *_KIND_FN[kind],
                                    np.array([k * np.pi for k in ks])))
        self._plans: dict[tuple[str, ...], list] = {}

    def _plan(self, names: tuple[str, ...]) -> list:
        """The :attr:`_kinds` entries cut down to the bases the named groups read."""
        if names not in self._plans:
            used = np.zeros(self._width, dtype=bool)
            for name in names:
                for _, base, _ in self._slots[name]:
                    used[base] = True
            self._plans[names] = [(cols[used[cols]], wave, post, freq[used[cols]])
                                  for cols, wave, post, freq in self._kinds if used[cols].any()]
        return self._plans[names]

    def _basis(self, t: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
        """(T, bases) values at the times of 1-d ``t`` of the bases the named groups read.

        The columns of the other bases are left unset.
        """
        out = np.empty((t.size, self._width))
        out[:, 0] = 1.0
        for cols, wave, post, freq in self._plan(names):
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
            basis = self._basis(flat[start:start + rows], names)
            for name in names:
                _fill(out[name][start:start + rows], basis, self._slots[name])
        return {name: values.reshape(t.shape + values.shape[1:]) for name, values in out.items()}

    def blocks(self, t: np.ndarray, names):
        """Yield ``(start, values)``: :meth:`eval` of the named groups at ``t[start:stop]``.

        Consecutive blocks of the 1-d ``t`` hold at most ``_BLOCK_VALUES``
        values in all (one time at least), so a long grid needs bounded memory.
        An empty ``t`` raises ValueError: no block would reduce to anything.
        """
        if t.size == 0:
            raise ValueError("a grid needs at least one time")
        width = sum(len(self.groups[name]) for name in names)
        rows = max(1, _BLOCK_VALUES // max(width, 1))
        for start in range(0, t.size, rows):
            yield start, self.eval(t[start:start + rows], names)

    def divides_period(self, omega: float) -> dict[str, np.ndarray]:
        """``PeriodicExpr.divides_period(omega)`` of every expression, per group.

        It is computed once for each distinct set of term periods.
        """
        ok = np.array([expr.divides_period(omega) for expr in self._period_reps], dtype=bool)
        return {name: ok[sets] for name, sets in self._period_set.items()}


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
