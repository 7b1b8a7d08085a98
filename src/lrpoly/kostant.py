"""Kostant partition function for A_n and its chamber decomposition.

The count itself is a depth-first enumeration over positive roots in
(i,j) order; `vector_partition_count` is an independent column-by-column
evaluation of phi_M used to cross-check it.  For n <= 3 the cone
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

from . import typea
from .exactla import MatrixQ, MultiPolyQ, det, fit_poly, null_space, rank


def _compositions(total: int, parts: int):
    """Nonnegative integer tuples of the given length summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# Bounded: one large count can fill it with residuals no later call meets.
@lru_cache(maxsize=1 << 16)
def _count_from(k: int, i: int, residual: tuple) -> int:
    # residual holds coordinates i..k-1; coordinates before i are spent.
    if i == k - 1:
        return 1 if residual[0] == 0 else 0
    head = residual[0]
    if head < 0:
        return 0
    total = 0
    # distribute head among the roots e_i - e_j, j > i, in j order
    for m in _compositions(head, k - 1 - i):
        nxt = list(residual[1:])
        for t, mult in enumerate(m):
            nxt[t] += mult
        total += _count_from(k, i + 1, tuple(nxt))
    return total


def kostant_count(k: int, v) -> int:
    """Number of ways to write v as an N-combination of positive roots.

    v lives in R^k (e coordinates) and must have coordinate sum 0.
    Non-integral v cannot be hit and counts 0.
    """
    v = typea.weight(v)
    if len(v) != k:
        raise ValueError("weight length does not match k")
    if sum(v) != 0:
        raise ValueError("weight has nonzero coordinate sum")
    if any(x.denominator != 1 for x in v):
        return 0
    if k == 1:
        return 1
    return _count_from(k, 0, tuple(x.numerator for x in v))


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

    Requires all matrix entries >= 0 with no zero column, which keeps
    residuals componentwise nonnegative and the recursion finite.  This
    is the independent cross-check for kostant_count.
    """
    cols = [m.col(j) for j in range(m.cols)]
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
        cap = min(residual[r] // int(col[r]) for r in range(len(col)) if col[r] > 0)
        total = 0
        for mult in range(cap + 1):
            nxt = tuple(residual[r] - mult * int(col[r]) for r in range(len(col)))
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


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _independent_subset(rays, n: int):
    """First n rays that are linearly independent, greedy."""
    chosen = []
    for r in rays:
        trial = chosen + [r]
        if rank(MatrixQ.from_rows(trial)) == len(trial):
            chosen.append(r)
        if len(chosen) == n:
            return chosen
    return None


@lru_cache(maxsize=3)
def kostant_chambers(n: int) -> tuple:
    """Regions of pos(M_{A_n}) cut by all wall hyperplanes, with polynomials.

    Only n <= 3 is supported.  Every region is the positive hull of its
    listed generators and lies inside a single true chamber, so the
    fitted polynomial (total degree <= C(n,2)) agrees with the partition
    function on the whole region.  A failed exact fit raises, since
    polynomiality is guaranteed by unimodularity.  The result is built
    once per n and shared, so it is an immutable tuple.
    """
    if n not in (1, 2, 3):
        raise ValueError("chamber decomposition only supported for n <= 3")
    walls = wall_hyperplanes(n)
    rays = _region_rays(n, walls)
    degree = comb(n, 2)
    out = []
    seen = set()
    for signs in itertools.product((1, -1), repeat=len(walls)):
        members = tuple(
            r
            for r in rays
            if all(s * typea.dot(w, r) >= 0 for s, w in zip(signs, walls))
        )
        if not members or members in seen:
            continue
        if rank(MatrixQ.from_rows(members)) < n:
            continue
        seen.add(members)
        poly = _fit_region_polynomial(n, members, degree)
        out.append(ChamberPoly(members, signs, poly))
    return tuple(out)


def _fit_region_polynomial(n: int, rays, degree: int) -> MultiPolyQ:
    base = tuple(sum(c) for c in zip(*rays))  # interior point
    axes = _independent_subset(rays, n)
    if axes is None:
        raise RuntimeError("region rays do not span")
    samples = []
    npoints = degree + 1
    for coeffs in itertools.product(range(npoints), repeat=n):
        p = list(base)
        for c, r in zip(coeffs, axes):
            for t in range(n):
                p[t] += c * r[t]
        samples.append((tuple(p), kostant_count(n + 1, _from_simple_roots(p))))
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
    """The unique region whose open interior holds the point, or None.

    The point must be strictly off every wall (all signs nonzero) and in
    the nonnegative orthant; boundary points return None.
    """
    if any(Fraction(x) < 0 for x in point):
        return None
    signs = tuple(_sign(typea.dot(w, point)) for w in walls)
    if any(s == 0 for s in signs):
        return None
    for ch in chambers:
        if ch.signs == signs:
            return ch
    return None
