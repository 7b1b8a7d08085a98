"""Exact cone membership by a Caratheodory search, as a test oracle.

`lr3.membership` decides membership by integer facet rows; this module
keeps the independent search it replaced, over exact solves, and the
validity cones of a k=3 point spelled out coordinate by coordinate.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

from elimination_oracle import solve_exact
from lrpoly.exactla import MatrixQ, rank

# a differential test asks about many points against the same few cones
_column_rank = lru_cache(maxsize=64)(rank)


def solve_nonneg_combination(columns: MatrixQ, target):
    """Express target as a nonnegative combination of the given columns.

    Searches basic solutions: every linearly independent column subset
    of size rank(columns) is solved exactly, and the first subset whose
    unique solution is componentwise >= 0 wins.  By Caratheodory this
    finds a certificate whenever target lies in the cone of the columns.
    Returns the full-length coefficient tuple, or None if target is
    outside the cone.
    """
    target = [Fraction(x) for x in target]
    if len(target) != columns.rows:
        raise ValueError("dimension mismatch")
    r = _column_rank(columns)
    if r == 0:
        if all(x == 0 for x in target):
            return tuple(Fraction(0) for _ in range(columns.cols))
        return None
    # quick span test: target must lie in the column space at all
    span = MatrixQ.from_rows(
        [list(columns.row(i)) + [target[i]] for i in range(columns.rows)]
    )
    if rank(span) > r:
        return None
    for subset in itertools.combinations(range(columns.cols), r):
        sub = columns.submatrix_cols(subset)
        if _column_rank(sub) < r:
            continue
        sol = solve_exact(sub, target)
        if sol is None:
            continue
        if all(x >= 0 for x in sol):
            full = [Fraction(0)] * columns.cols
            for j, c in enumerate(subset):
                full[c] = sol[j]
            return tuple(full)
    return None


def satisfies_validity_cones(point) -> bool:
    """lam_i, mu_i <= nu_i plus the sum constraint, and all three
    blocks weakly decreasing and nonnegative."""
    point = tuple(point)
    if len(point) != 9:
        raise ValueError("point must have 9 coordinates")
    lam, mu, nu = point[0:3], point[3:6], point[6:9]
    return (
        sum(lam) + sum(mu) == sum(nu)
        and all(b[0] >= b[1] >= b[2] >= 0 for b in (lam, mu, nu))
        and all(lam[i] <= nu[i] and mu[i] <= nu[i] for i in range(3))
    )
