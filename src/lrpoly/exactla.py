"""Exact linear algebra and polynomial fitting.

There is no floating point anywhere.  Matrices are small and dense
(row-major lists).  All elimination is one fraction-free Gauss-Jordan
loop in ints, `int_rref`: rank, independent rows, null spaces,
determinants and `fit_poly`, the one polynomial fit, read its int rows
and last pivot, and `rref` is its Fraction view.  Null-space vectors
and polynomial coefficients are Fractions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul


class UnderdeterminedSystemError(ValueError):
    """Raised when a linear fit does not pin down every coefficient."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class MatrixQ:
    """Dense matrix of Fractions, stored row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @staticmethod
    def from_rows(rows) -> "MatrixQ":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = tuple(_frac(x) for r in rows for x in r)
        return MatrixQ(nrows, ncols, flat)

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix_cols(self, cols) -> "MatrixQ":
        cols = list(cols)
        return MatrixQ.from_rows(
            [[self.at(i, j) for j in cols] for i in range(self.rows)]
        )

    def int_rows(self) -> list:
        """Rows as plain ints; raises if any entry is non-integral."""
        out = []
        for i in range(self.rows):
            row = []
            for x in self.row(i):
                if x.denominator != 1:
                    raise ValueError("non-integral entry")
                row.append(x.numerator)
            out.append(row)
        return out


def _int_row(row) -> list:
    """A row of ints or Fractions times the lcm of its denominators."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def int_rref(rows):
    """Fraction-free Gauss-Jordan: (int rows, d, pivot columns).

    The rref is rows / d.  Each row is first scaled to ints, which keeps
    the row space, hence the rref, rank, pivots and null space.  A step
    with pivot value v replaces every other row by (v row - f top) / d,
    f the row's entry in the pivot column, top the pivot row and d the
    previous pivot value; the division is exact (Bareiss 1968), and each
    pivot row ends with the last pivot value d at its pivot.  A swap
    negates the row it moves down, so for a square matrix of full rank d
    is the determinant of the scaled rows.
    """
    a = [_int_row(r) for r in rows]
    d = 1
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == len(a):
            break
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], [-x for x in a[r]]
        top = a[r]
        v = top[c]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(v * x - f * y) // d for x, y in zip(row, top)]
        d = v
        pivots.append(c)
    return a, d, tuple(pivots)


def rref(m: MatrixQ):
    """Reduced row-echelon form: (matrix, rank, pivot_columns)."""
    rows, d, pivots = int_rref(m.row_lists())
    if rows:
        m = MatrixQ.from_rows([[Fraction(x, d) for x in r] for r in rows])
    return m, len(pivots), pivots


def rank(m: MatrixQ) -> int:
    return len(int_rref(m.row_lists())[2])


def independent_rows(rows) -> tuple:
    """Indices of the rows outside the span of the rows before them.

    These are the pivot columns of the transpose's rref: the greedy
    choice that keeps each row which raises the rank.
    """
    return int_rref(zip(*rows))[2]


def det(m: MatrixQ) -> Fraction:
    """Determinant: the last int_rref pivot over the row scales."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    rows = m.row_lists()
    _, d, pivots = int_rref(rows)
    if len(pivots) < m.rows:
        return Fraction(0)
    return Fraction(d, prod(lcm(*(x.denominator for x in r)) for r in rows))


def null_space(m: MatrixQ) -> list:
    """Basis of the right null space, one tuple per free column."""
    rows, d, pivots = int_rref(m.row_lists())
    basis = []
    for fc in sorted(set(range(m.cols)) - set(pivots)):
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = Fraction(-row[fc], d)
        basis.append(tuple(v))
    return basis


def _join_terms(terms) -> str:
    """Display (coefficient, monomial) pairs as e.g. "3*x^2-x+1/2".

    The monomial "" is the constant; zero coefficients are skipped, and
    an empty sum displays as "0".
    """
    out = ""
    for c, mono in terms:
        if c == 0:
            continue
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        out += ("-" if c < 0 else "+" if out else "") + body
    return out or "0"


@dataclass(frozen=True)
class UniPolyQ:
    """Univariate polynomial with Fraction coefficients, index = power."""

    coefficients: tuple

    @staticmethod
    def from_coeffs(coeffs) -> "UniPolyQ":
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return UniPolyQ(tuple(cs))

    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coefficients) - 1

    def evaluate(self, x) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def is_zero(self) -> bool:
        return not self.coefficients

    def format(self, var: str = "N") -> str:
        return _join_terms(
            (c, "" if p == 0 else var if p == 1 else f"{var}^{p}")
            for p, c in reversed(list(enumerate(self.coefficients)))
        )


def monomials_up_to_degree(nvars: int, max_degree: int) -> list:
    """Exponent tuples of total degree <= max_degree, graded lex order.

    Grading is by total degree; ties break lexicographically with
    earlier variables first (x before y before z).
    """
    out = []
    for d in range(max_degree + 1):
        for picks in itertools.combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for i in picks:
                e[i] += 1
            out.append(tuple(e))
    return out


def monomial_row(point, monos) -> list:
    """Each monomial (exponent tuple) of monos at point; ints at ints."""
    return [prod(map(pow, point, e)) for e in monos]


@dataclass(frozen=True)
class MultiPolyQ:
    """Multivariate polynomial: exponent tuple -> Fraction, no zero terms."""

    nvars: int
    terms: tuple  # sorted ((exponents, coefficient), ...) pairs

    @staticmethod
    def from_terms(nvars: int, terms) -> "MultiPolyQ":
        acc = {}
        for e, c in dict(terms).items():
            c = _frac(c)
            if len(e) != nvars:
                raise ValueError("exponent length mismatch")
            if c != 0:
                acc[tuple(e)] = c
        order = sorted(acc, key=lambda e: (sum(e), tuple(-x for x in e)))
        return MultiPolyQ(nvars, tuple((e, acc[e]) for e in order))

    @staticmethod
    def constant(nvars: int, c) -> "MultiPolyQ":
        return MultiPolyQ.from_terms(nvars, {(0,) * nvars: _frac(c)})

    @staticmethod
    def linear(nvars: int, const, coeffs) -> "MultiPolyQ":
        """Affine polynomial const + sum coeffs[i] * x_i."""
        terms = {(0,) * nvars: _frac(const)}
        for i, c in coeffs.items():
            e = [0] * nvars
            e[i] = 1
            terms[tuple(e)] = _frac(c)
        return MultiPolyQ.from_terms(nvars, terms)

    def coefficient(self, exponents) -> Fraction:
        e = tuple(exponents)
        for exp, c in self.terms:
            if exp == e:
                return c
        return Fraction(0)

    def total_degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, point) -> Fraction:
        point = tuple(point)
        if len(point) != self.nvars:
            raise ValueError("dimension mismatch")
        values = monomial_row(point, [e for e, _ in self.terms])
        return sum(
            (c * v for (_, c), v in zip(self.terms, values)), Fraction(0)
        )

    def __add__(self, other: "MultiPolyQ") -> "MultiPolyQ":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return MultiPolyQ.from_terms(self.nvars, acc)

    def scale(self, s) -> "MultiPolyQ":
        s = _frac(s)
        return MultiPolyQ.from_terms(
            self.nvars, {e: c * s for e, c in self.terms}
        )

    def __sub__(self, other: "MultiPolyQ") -> "MultiPolyQ":
        return self + other.scale(-1)

    def to_json_dict(self, names) -> dict:
        """{"x*x*y": "coefficient"}; "1" keys the constant term."""
        out = {}
        for e, c in self.terms:
            factors = []
            for name, p in zip(names, e):
                factors.extend([name] * p)
            out["*".join(factors) if factors else "1"] = str(c)
        return out

    def format(self, names=None) -> str:
        if names is None:
            names = [f"x{i+1}" for i in range(self.nvars)]
        return _join_terms(
            (c, "*".join(
                name if p == 1 else f"{name}^{p}"
                for name, p in zip(names, e)
                if p
            ))
            for e, c in self.terms
        )


def fit_poly(samples, nvars: int, max_degree: int):
    """Exact polynomial fit of total degree <= max_degree.

    samples: iterable of (point, value).  Solves for the coefficients on
    the first samples if they fix them, else on all, and checks the rest
    in ints; returns None when the data fits no such polynomial.  A
    system that does not determine every coefficient raises
    UnderdeterminedSystemError -- a sampling problem, not a property of
    the data.
    """
    samples = list(samples)
    monos = monomials_up_to_degree(nvars, max_degree)
    n = len(monos)
    if len(samples) < n:
        raise UnderdeterminedSystemError(
            f"{len(samples)} samples for {n} monomials"
        )
    rows = [monomial_row(point, monos) + [value] for point, value in samples]
    reduced, d, pivots = int_rref(rows[:n])
    if pivots != tuple(range(n)):
        reduced, d, pivots = int_rref(rows)
    if n in pivots:
        return None
    if len(pivots) < n:
        raise UnderdeterminedSystemError(
            "sample points do not determine the fit"
        )
    xs = [row[n] for row in reduced[:n]]  # d times the coefficients
    if any(sum(map(mul, xs, row)) != d * row[n] for row in rows[n:]):
        return None
    return MultiPolyQ.from_terms(
        nvars, {e: Fraction(x, d) for e, x in zip(monos, xs)}
    )
