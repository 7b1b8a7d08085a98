"""Exact rational linear algebra and polynomial interpolation.

Everything here works over `fractions.Fraction`; there is no floating
point anywhere.  Matrices are small and dense (row-major lists) and
polynomial fits are solved by plain Gauss-Jordan elimination, so no
effort is spent on sparse or asymptotic performance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


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

    @staticmethod
    def identity(n: int) -> "MatrixQ":
        return MatrixQ.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul_vec(self, v) -> tuple:
        v = [_frac(x) for x in v]
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(
            sum((self.at(i, j) * v[j] for j in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        )

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


def rref(m: MatrixQ):
    """Reduced row-echelon form.

    Returns (matrix, rank, pivot_columns).  Exact Gauss-Jordan with
    partial pivoting on the first nonzero entry.
    """
    a = m.row_lists()
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return MatrixQ.from_rows(a) if nrows else m, r, tuple(pivots)


def rank(m: MatrixQ) -> int:
    return rref(m)[1]


def independent_rows(rows) -> tuple:
    """Indices of the rows outside the span of the rows before them.

    These are the pivot columns of the transpose's rref: the greedy
    choice that keeps each row which raises the rank.
    """
    return rref(MatrixQ.from_rows(list(zip(*rows))))[2]


def det(m: MatrixQ) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    a = m.row_lists()
    n = m.rows
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        result *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return sign * result


def null_space(m: MatrixQ) -> list:
    """Basis of the right null space, one tuple per free column."""
    red, _, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red.at(r, fc)
        basis.append(tuple(v))
    return basis


def solve_exact(m: MatrixQ, b):
    """Unique solution of m x = b when m has full column rank.

    Returns None when inconsistent; raises UnderdeterminedSystemError
    when the solution is not unique.
    """
    b = [_frac(x) for x in b]
    if len(b) != m.rows:
        raise ValueError("dimension mismatch")
    aug = MatrixQ.from_rows(
        [list(m.row(i)) + [b[i]] for i in range(m.rows)]
    )
    red, rk, pivots = rref(aug)
    if m.cols in pivots:
        return None
    if rk < m.cols:
        raise UnderdeterminedSystemError("solution not unique")
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.at(r, m.cols)
    return tuple(x)


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

    @staticmethod
    def zero() -> "UniPolyQ":
        return UniPolyQ(())

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


def interpolate_univariate(points) -> UniPolyQ:
    """Unique polynomial of degree < len(points) through the points.

    Lagrange interpolation, exact.  Duplicate abscissae are rejected.
    """
    pts = [(_frac(x), _frac(y)) for x, y in points]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissa")
    n = len(pts)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(pts):
        # numerator polynomial prod_{j != i} (X - x_j), times y_i / denom
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(pts):
            if j == i:
                continue
            denom *= xi - xj
            nxt = [Fraction(0)] * (len(basis) + 1)
            for p, c in enumerate(basis):
                nxt[p + 1] += c
                nxt[p] -= c * xj
            basis = nxt
        scale = yi / denom
        for p, c in enumerate(basis):
            coeffs[p] += c * scale
    return UniPolyQ.from_coeffs(coeffs)


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
    """The value at point of each monomial (exponent tuple) in monos."""
    row = []
    for e in monos:
        v = Fraction(1)
        for x, p in zip(point, e):
            for _ in range(p):
                v *= x
        row.append(v)
    return row


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
        point = [_frac(x) for x in point]
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

    samples: iterable of (point, value).  Solves the linear system for
    the monomial coefficients outright; returns None when the data is
    inconsistent with any such polynomial.  A system that does not
    determine every coefficient raises UnderdeterminedSystemError --
    that is a sampling problem, not a property of the data.
    """
    samples = [([_frac(x) for x in p], _frac(v)) for p, v in samples]
    monos = monomials_up_to_degree(nvars, max_degree)
    if len(samples) < len(monos):
        raise UnderdeterminedSystemError(
            f"{len(samples)} samples for {len(monos)} monomials"
        )
    rows = [monomial_row(point, monos) for point, _ in samples]
    rhs = [value for _, value in samples]
    try:
        sol = solve_exact(MatrixQ.from_rows(rows), rhs)
    except UnderdeterminedSystemError:
        raise UnderdeterminedSystemError(
            "sample points do not determine the fit"
        )
    if sol is None:
        return None
    return MultiPolyQ.from_terms(
        nvars, {e: c for e, c in zip(monos, sol)}
    )
