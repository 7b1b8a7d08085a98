"""Kostant partition function for A_n and its chamber decomposition.

The count works in simple-root coordinates b, where pos(M_{A_n}) is the
nonnegative orthant: `_count_from(b)` spreads b_1 over the roots that
hold alpha_1 and recurses on A_{n-1}; `kostant_count` maps e to b.
`vector_partition_count` is an independent column-by-column evaluation
of phi_M used to cross-check it.  For 1 <= n <= 3 the cone
pos(M_{A_n}) is decomposed by the full arrangement of wall-normal
hyperplanes (a refinement of the chamber complex, not the minimal one)
and a polynomial is fitted exactly on each region.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from operator import mul, sub

from . import typea
from .exactla import MatrixQ, MultiPolyQ, det, fit_poly, null_space, rank
from .exactla import independent_rows


def _covers(top: int, bounds):
    """Nonincreasing int tuples c, c[0] <= top and 0 <= c[t] <= bounds[t]."""
    if not bounds:
        yield ()
        return
    for c in range(min(top, bounds[0]) + 1):
        for rest in _covers(c, bounds[1:]):
            yield (c,) + rest


# Bounded: one large count can fill it with points no later call meets.
@lru_cache(maxsize=1 << 16)
def _count_from(b: tuple) -> int:
    """Kostant partition count of sum b_t alpha_t, b an int tuple.

    The roots holding alpha_1 are alpha_1 + ... + alpha_j; if c_t of the
    chosen ones reach alpha_t, then c is nonincreasing from c_1 = b_1
    and b_t - c_t is left for alpha_2..alpha_n.  A negative entry counts
    0, and every recursive call stays in the nonnegative orthant.
    """
    if min(b, default=0) < 0:
        return 0
    if len(b) < 2:
        return 1
    rest = b[1:]
    return sum(
        _count_from(tuple(map(sub, rest, c))) for c in _covers(b[0], rest)
    )


def kostant_count(k: int, v) -> int:
    """Number of ways to write v as an N-combination of positive roots.

    v lives in R^k (e coordinates) and must have coordinate sum 0; it is
    counted at its simple-root coordinates.  Non-integral v cannot be hit
    and counts 0.
    """
    v = typea.weight(v)
    if len(v) != k:
        raise ValueError("weight length does not match k")
    b = typea.to_simple_root_coords(v)
    if any(x.denominator != 1 for x in b):
        return 0
    return _count_from(tuple(x.numerator for x in b))


@dataclass(frozen=True)
class RootMatrix:
    """Positive roots of A_n as columns, in simple-root coordinates."""

    n: int
    matrix: MatrixQ


def build_root_matrix(n: int) -> RootMatrix:
    """Columns e_i - e_j (i < j, lexicographic) as 0/1 blocks of alphas."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cols = []
    for i in range(1, n + 2):
        for j in range(i + 1, n + 2):
            cols.append([1 if i <= t < j else 0 for t in range(1, n + 1)])
    rows = [[cols[c][r] for c in range(len(cols))] for r in range(n)]
    return RootMatrix(n, MatrixQ.from_rows(rows))


def check_unimodular(m: MatrixQ):
    """Exhaustively test all maximal square submatrices for det in {0,+-1}.

    Returns (True, None) or (False, witness_column_tuple).
    """
    d = m.rows
    if rank(m) < d:
        raise ValueError("matrix is not of full row rank")
    for cols in itertools.combinations(range(m.cols), d):
        dv = det(m.submatrix_cols(cols))
        if dv not in (0, 1, -1):
            return False, cols
    return True, None


def vector_partition_count(m: MatrixQ, b) -> int:
    """phi_M(b): nonnegative integer solutions of M x = b.

    Requires int matrix entries >= 0 with no zero column, which keeps
    residuals componentwise nonnegative and the recursion finite; a
    non-integral entry raises ValueError.  This is the independent
    cross-check for kostant_count.
    """
    rows = m.int_rows()
    cols = [tuple(r[j] for r in rows) for j in range(m.cols)]
    for c in cols:
        if any(x < 0 for x in c):
            raise ValueError("vector_partition_count needs a nonnegative matrix")
        if all(x == 0 for x in c):
            raise ValueError("zero column makes the count infinite")
    b = [Fraction(x) for x in b]
    if any(x.denominator != 1 for x in b):
        return 0
    b = tuple(x.numerator for x in b)
    memo = {}

    def go(idx: int, residual: tuple) -> int:
        if any(x < 0 for x in residual):
            return 0
        if idx == len(cols):
            return 1 if all(x == 0 for x in residual) else 0
        key = (idx, residual)
        if key in memo:
            return memo[key]
        col = cols[idx]
        cap = min(x // c for x, c in zip(residual, col) if c > 0)
        total = 0
        for mult in range(cap + 1):
            nxt = tuple(x - mult * c for x, c in zip(residual, col))
            total += go(idx + 1, nxt)
        memo[key] = total
        return total

    return go(0, b)


def _primitive(v) -> tuple:
    """Scale a rational vector to coprime ints, first nonzero positive."""
    fracs = [Fraction(x) for x in v]
    denom = 1
    for x in fracs:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def wall_normals(n: int) -> tuple:
    """Chamber-complex wall normals in simple-root coordinates.

    A wall w of A_n pairs with v = sum b_i alpha_i through
    <v, w> = sum b_i (w_i - w_{i+1}), so in b-coordinates the normal of
    the table entry k w is ((k w)_i - (k w)_{i+1}) / k, an int in
    {-1, 0, 1}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = n + 1
    return tuple(sorted(
        tuple((w[i] - w[i + 1]) // k for i in range(n))
        for w in typea.wall_table(k)
    ))


def wall_hyperplanes(n: int) -> tuple:
    """wall_normals deduplicated up to sign and scaling (primitive form)."""
    return tuple(sorted({_primitive(u) for u in wall_normals(n)}))


@dataclass(frozen=True)
class ChamberPoly:
    """One region of the refined decomposition with its exact polynomial."""

    generators: tuple  # primitive integer rays, simple-root coordinates
    signs: tuple       # sign against each wall hyperplane, in order
    polynomial: MultiPolyQ


def _region_rays(n: int, walls):
    """Candidate extreme rays: kernels of (n-1)-subsets of walls in pos(M)."""
    rays = set()
    for subset in itertools.combinations(range(len(walls)), n - 1):
        if subset:
            m = MatrixQ.from_rows([walls[i] for i in subset])
        else:
            m = MatrixQ(0, n, ())
        kernel = null_space(m)
        if len(kernel) != 1:
            continue
        r = _primitive(kernel[0])
        # pos(M_{A_n}) is the nonnegative orthant in simple-root coords
        if all(x >= 0 for x in r):
            rays.add(r)
        elif all(x <= 0 for x in r):
            rays.add(tuple(-x for x in r))
    return sorted(rays)


@lru_cache(maxsize=3)
def kostant_chambers(n: int) -> tuple:
    """Regions of pos(M_{A_n}) cut by all wall hyperplanes, with polynomials.

    Only 1 <= n <= 3 is supported.  Every region is the positive hull of its
    listed generators and lies inside a single true chamber, so the
    fitted polynomial (total degree <= C(n,2)) agrees with the partition
    function on the whole region.  A failed exact fit raises, since
    polynomiality is guaranteed by unimodularity.  The result is built
    once per n and shared, so it is an immutable tuple.
    """
    if n not in (1, 2, 3):
        raise ValueError("chamber decomposition needs 1 <= n <= 3")
    walls = wall_hyperplanes(n)
    rays = _region_rays(n, walls)
    degree = comb(n, 2)
    out = []
    seen = set()
    for signs in itertools.product((1, -1), repeat=len(walls)):
        members = tuple(
            r
            for r in rays
            if all(s * sum(map(mul, w, r)) >= 0 for s, w in zip(signs, walls))
        )
        if not members or members in seen:
            continue
        axes = independent_rows(members)
        if len(axes) < n:
            continue
        seen.add(members)
        poly = _fit_region_polynomial(
            members, [members[i] for i in axes], degree
        )
        out.append(ChamberPoly(members, signs, poly))
    return tuple(out)


def _fit_region_polynomial(rays, axes, degree: int) -> MultiPolyQ:
    """Fit on the points sum(rays) + sum c_i axes_i, 0 <= c_i <= degree.

    The points with sum(c) <= degree come first: they alone determine a
    polynomial of that degree, and fit_poly checks the rest against it.
    """
    n = len(axes)
    base = tuple(map(sum, zip(*rays)))  # interior point
    samples = []
    grid = itertools.product(range(degree + 1), repeat=n)
    for coeffs in sorted(grid, key=sum):
        p = tuple(
            base[t] + sum(c * r[t] for c, r in zip(coeffs, axes))
            for t in range(n)
        )
        samples.append((p, _count_from(p)))
    poly = fit_poly(samples, n, degree)
    if poly is None:
        raise RuntimeError("exact fit failed on a chamber region")
    return poly


def _from_simple_roots(b) -> tuple:
    """Inverse of typea.to_simple_root_coords: b-coords to e-coords."""
    b = [Fraction(x) for x in b]
    prev = Fraction(0)
    out = []
    for x in b:
        out.append(x - prev)
        prev = x
    out.append(-prev)
    return tuple(out)


def region_containing(chambers, walls, point):
    """The unique region whose open interior holds the int point, or None.

    The point must be strictly off every wall and in the nonnegative
    orthant; boundary points return None.
    """
    if min(point) < 0:
        return None
    dots = [sum(map(mul, w, point)) for w in walls]
    for ch in chambers:
        if all(s * d > 0 for s, d in zip(ch.signs, dots)):
            return ch
    return None
