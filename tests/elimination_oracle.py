"""Exact linear algebra by Fraction elimination, as a test oracle.

`exactla` eliminates once, fraction-free, in ints (`int_rref`), and
fits every polynomial through it (`fit_poly`); this module keeps the
Fraction Gauss-Jordan and the Fraction determinant it replaced, the
rank, row choice, null space and solve read off that rref the way
`exactla` used to, and Lagrange interpolation as the reference for
one-variable fits.
"""

from fractions import Fraction

from lrpoly.exactla import MatrixQ, UnderdeterminedSystemError, UniPolyQ


def rref(m: MatrixQ):
    """(matrix, rank, pivot_columns) by Gauss-Jordan over Fractions."""
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


def det(m: MatrixQ) -> Fraction:
    """Determinant by Fraction Gaussian elimination."""
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


def independent_rows(rows) -> tuple:
    """Pivot columns of the transpose's rref."""
    return rref(MatrixQ.from_rows(list(zip(*rows))))[2]


def null_space(m: MatrixQ) -> list:
    red, _, pivots = rref(m)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red.at(r, fc)
        basis.append(tuple(v))
    return basis


def solve_exact(m: MatrixQ, b):
    """The unique x with m x = b, None if inconsistent, or raise."""
    aug = MatrixQ.from_rows(
        [list(m.row(i)) + [Fraction(b[i])] for i in range(m.rows)]
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


def interpolate_univariate(points) -> UniPolyQ:
    """Unique polynomial of degree < len(points) through the points.

    Lagrange interpolation over Fractions; the abscissae must differ.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    coeffs = [Fraction(0)] * len(pts)
    for i, (xi, yi) in enumerate(pts):
        # prod_{j != i} (X - x_j), times y_i over its value at x_i
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
        for p, c in enumerate(basis):
            coeffs[p] += c * yi / denom
    return UniPolyQ.from_coeffs(coeffs)
