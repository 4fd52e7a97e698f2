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
    ratio = Fraction(omega) / period  # exact, also past the float range
    return round(ratio) >= 1 and abs(ratio - round(ratio)) <= Fraction(rel_tol) * max(1, ratio)


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

        An expression with at most one non-constant term ``amp * B`` is monotone
        in ``B``, as ``fl(amp * B)`` and each ``fl(x + c)`` round monotonically, so
        its extremes are its values where ``B`` has its extremes, with the bits of
        a full scan.  Only expressions of two or more such terms are scanned over
        the whole grid.  One pass over blocks of the grid computes each basis once,
        for its extreme times and for the scan; a block holds at most
        ``_BLOCK_VALUES`` values of either.  A proven enclosure on the grid's cells
        is to replace this rule.  A NaN value makes both bounds NaN.  An empty ``t``
        raises ValueError: it has no least value.
        """
        if t.size == 0:
            raise ValueError("a grid needs at least one time")
        # per group: the basis each expression reads, if only one, and the scan of those of
        # two or more varying terms (their columns and slots, least and greatest so far)
        reads, scans = {}, {}
        for name in names:
            count, base = np.zeros((2, len(self.groups[name])), dtype=np.intp)
            for cols, slot_base, _ in self._slots[name]:
                cols = slice(None) if cols is None else cols
                count[cols] += slot_base != 0
                base[cols] = np.maximum(base[cols], slot_base)
            reads[name] = base
            many = np.flatnonzero(count > 1)
            if many.size:
                scans[name] = (many, _restrict(self._slots[name], many),
                               np.full(many.size, math.inf), np.full(many.size, -math.inf))
        at = self._extreme_times(t, scans.values())
        # every group at the grid times of each basis's least, then greatest value
        values = self.eval(t[at.ravel()], names)
        out = {}
        for name, base in reads.items():
            ends = values[name].reshape(2, self._width, -1)[:, base, np.arange(base.size)]
            out[name] = ends.min(axis=0), ends.max(axis=0)
        for name, (many, _, least, greatest) in scans.items():
            out[name][0][many] = np.minimum(out[name][0][many], least)
            out[name][1][many] = np.maximum(out[name][1][many], greatest)
        return out

    def _extreme_times(self, t: np.ndarray, scans) -> np.ndarray:
        """(2, bases) grid indices of the least (row 0) and greatest value of each basis.

        A NaN value counts as both.  Each scan ``(columns, slots, least, greatest)``
        takes the least and greatest value of its expressions into its two arrays,
        from the same blocks of basis values.
        """
        at = np.zeros((2, self._width), dtype=np.intp)
        best = np.repeat([[math.inf], [-math.inf]], self._width, axis=1)
        rows = max(1, _BLOCK_VALUES // self._width)
        for start in range(0, t.size, rows):
            basis = self._basis(t[start:start + rows])
            found = np.stack((basis.argmin(axis=0), basis.argmax(axis=0)))
            value = np.take_along_axis(basis, found, axis=0)
            better = np.stack((value[0] < best[0], value[1] > best[1])) | np.isnan(value)
            at[better], best[better] = found[better] + start, value[better]
            for cols, slots, least, greatest in scans:  # in parts of the block's rows
                step = max(1, _BLOCK_VALUES // cols.size)
                for part in (basis[s:s + step] for s in range(0, len(basis), step)):
                    values = np.empty((len(part), cols.size))
                    _fill(values, part, slots)
                    np.minimum(least, values.min(axis=0), out=least)
                    np.maximum(greatest, values.max(axis=0), out=greatest)
        return at

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


def _restrict(slots: list, keep: np.ndarray) -> list:
    """The term slots of the expressions ``keep`` (ascending), numbered by their place in it."""
    out = []
    for cols, base, amp in slots:
        cols = np.arange(base.size) if cols is None else cols
        take = np.flatnonzero(np.isin(cols, keep))
        if take.size:
            place = np.searchsorted(keep, cols[take])
            out.append((None if take.size == keep.size else place, base[take], amp[take]))
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
