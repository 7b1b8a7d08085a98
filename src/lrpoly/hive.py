"""Hive counting and its linear-system encoding.

A k-hive is a triangular array a_{ij} (i, j >= 0, i+j <= k) whose
boundary is fixed by (lambda, mu, nu) and whose entries satisfy three
families of rhombus inequalities.  Counting integral hives gives the
Littlewood-Richardson coefficient.  hive_count searches one flat list
of int slots (boundary first, then the interior in row-major search
order) with a plan compiled once per k: it branches on every interior
entry but the last, and counts the last entry's whole interval once
every constraint holds at both of its ends.  build_system rewrites the
inequalities as E x = B (lambda mu nu) with slack variables, so the same
number is a vector partition function; count_via_system solves that
system by backtracking, independently of the hive search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb
from operator import mul
from typing import NamedTuple

from . import typea
from .exactla import MatrixQ


def interior_cells(k: int) -> list:
    """Interior positions (i,j), 1 <= i,j and i+j <= k-1, row-major."""
    return [(i, j) for i in range(1, k) for j in range(1, k - i)]


def _inequalities(k: int) -> list:
    """All (name, boxed, unboxed) rhombus constraints, documented order.

    Each entry demands sum(boxed) >= sum(unboxed).  Order: the square
    family, then the rhombus pointing east, then the rhombus pointing
    south, each family row-major in its (i,j) index.  The order is part
    of the wire format; golden tests pin the k=3 matrices to it.
    """
    out = []
    spots = [(i, j) for i in range(k - 1) for j in range(k - 1 - i)]
    for i, j in spots:
        out.append(
            (f"square({i},{j})",
             ((i + 1, j), (i, j + 1)),
             ((i, j), (i + 1, j + 1)))
        )
    for i, j in spots:
        out.append(
            (f"east({i},{j})",
             ((i, j + 1), (i + 1, j + 1)),
             ((i + 1, j), (i, j + 2)))
        )
    for i, j in spots:
        out.append(
            (f"south({i},{j})",
             ((i + 1, j), (i + 1, j + 1)),
             ((i + 2, j), (i, j + 1)))
        )
    return out


def _is_boundary(k: int, i: int, j: int) -> bool:
    return i == 0 or j == 0 or i + j == k


def _boundary_form(k: int, i: int, j: int):
    """Boundary entry as coefficient rows (lam, mu, nu) of length k each.

    Left edge carries partial sums of lambda, top edge partial sums of
    nu, and the antidiagonal |lambda| + mu_1 + ... + mu_i; the corner
    (k,0) uses the nu form, so mu_k never appears.
    """
    lam = [0] * k
    mu = [0] * k
    nu = [0] * k
    if i == 0:
        for t in range(j):
            lam[t] = 1
    elif j == 0:
        for t in range(i):
            nu[t] = 1
    else:  # i + j == k, 1 <= i <= k-1
        for t in range(k):
            lam[t] = 1
        for t in range(i):
            mu[t] = 1
    return lam, mu, nu


def _slots(k: int) -> dict:
    """Every hive position -> its index in hive_count's flat value list.

    Boundary first, in the order hive_count fills it: the left edge
    (0,0)..(0,k-1), the antidiagonal (0,k), (1,k-1), ..., (k-1,1), and the
    top edge (1,0)..(k,0); then the interior cells in search order.
    """
    order = (
        [(0, j) for j in range(k)]
        + [(i, k - i) for i in range(k)]
        + [(i, 0) for i in range(1, k + 1)]
        + interior_cells(k)
    )
    return {c: s for s, c in enumerate(order)}


class _HivePlan(NamedTuple):
    cells: tuple          # interior cells in search order
    ineqs: tuple          # every constraint as (boxed slots, unboxed slots)
    by_last: dict         # cell -> ((is_lower, plus, minus), ...) it is last in
    boundary_only: tuple  # (boxed, unboxed) slot pairs with no interior cell


@lru_cache(maxsize=16)
def _hive_plan(k: int) -> _HivePlan:
    """The k-hive constraints over slots, grouped by the cell assigned last.

    Every rhombus constraint reads a + b >= c + d over four positions.
    Seen from its last interior cell it bounds that cell by
    sum(plus) - sum(minus): from below (is_lower) when the cell is boxed,
    with plus the two unboxed slots and minus the other boxed one, and
    from above when it is unboxed, with the roles swapped.
    """
    cells = tuple(interior_cells(k))
    slot = _slots(k)
    ineqs = []
    by_last = {c: [] for c in cells}
    boundary_only = []
    for _, boxed, unboxed in _inequalities(k):
        pair = (tuple(map(slot.get, boxed)), tuple(map(slot.get, unboxed)))
        ineqs.append(pair)
        interior = [c for c in boxed + unboxed if c in by_last]
        if not interior:
            boundary_only.append(pair)
            continue
        cell = max(interior, key=slot.get)
        is_lower = cell in boxed
        side, plus = (boxed, unboxed) if is_lower else (unboxed, boxed)
        minus = tuple(slot[c] for c in side if c != cell)
        by_last[cell].append((is_lower, tuple(map(slot.get, plus)), minus))
    by_last = {c: tuple(group) for c, group in by_last.items()}
    return _HivePlan(cells, tuple(ineqs), by_last, tuple(boundary_only))


def hive_count(lam, mu, nu, k: int = None) -> int:
    """Number of integral k-hives with the given boundary.

    The triple is read through typea.padded_triple (validation, k
    inferred unless given, padding to k); zero immediately unless
    |lam| + |mu| = |nu|.  The hive lives in one list of int slots
    (_slots): the boundary is filled from partial sums of lambda,
    |lambda| + mu and nu, and the interior entries are assigned in
    row-major order, each clamped to the exact integer interval implied
    by the constraints whose other entries are already fixed.  Every
    entry but the last is branched on; the last one is counted as its
    whole interval [lo, hi] after every constraint is re-checked at lo
    and at hi.  Each constraint is affine in that entry, so it holds on
    all of [lo, hi] exactly when it holds at both ends: every counted
    hive is verified.
    Without interior entries (k <= 2) the one hive is re-checked in full.
    """
    lam, mu, nu, k = typea.padded_triple(lam, mu, nu, k)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    plan = _hive_plan(k)
    cells = plan.cells
    v = [
        *accumulate(lam[:-1], initial=0),
        *accumulate(mu[:-1], initial=sum(lam)),
        *accumulate(nu),
    ] + [0] * len(cells)
    for (a, b), (c, d) in plan.boundary_only:
        if v[a] + v[b] < v[c] + v[d]:
            return 0
    ineqs = plan.ineqs

    def verify():
        for (a, b), (c, d) in ineqs:
            if v[a] + v[b] < v[c] + v[d]:
                raise RuntimeError("incremental bounds missed a constraint")

    if not cells:
        verify()
        return 1
    bounds = [plan.by_last[c] for c in cells]
    first = len(v) - len(cells)
    last = len(cells) - 1
    count = 0

    def search(t: int):
        nonlocal count
        lo, hi = 0, None
        for is_lower, (p, q), (m,) in bounds[t]:
            bound = v[p] + v[q] - v[m]
            if is_lower:
                if bound > lo:
                    lo = bound
            elif hi is None or bound < hi:
                hi = bound
        if hi is None:
            raise RuntimeError("interior entry with no upper bound")
        if t < last:
            slot = first + t
            for x in range(lo, hi + 1):
                v[slot] = x
                search(t + 1)
        elif lo <= hi:
            v[-1] = lo
            verify()
            v[-1] = hi
            verify()
            count += hi - lo + 1

    search(0)
    return count


@dataclass(frozen=True)
class HiveSystem:
    """The pair (E, B) with c = phi_E(B (lambda mu nu)).

    E has n(k) = 3 C(k,2) rows and C(k-1,2) + n(k) columns: interior
    hive entries in row-major order, then one slack per inequality (the
    slack block is an identity).  B has the same rows over the 3k
    columns lambda_1..lambda_k, mu_1..mu_k, nu_1..nu_k; mu_k is the
    dependent coordinate and its column is identically zero.
    """

    k: int
    E: MatrixQ
    B: MatrixQ
    inequality_order: tuple

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "inequality_order": list(self.inequality_order),
            "E": self.E.int_rows(),
            "B": self.B.int_rows(),
        }

    @cached_property
    def _search_rows(self) -> tuple:
        """E's rows cut to the interior columns (the slack block is an
        identity), B as int rows, and for each interior variable the rows
        in which it is the last interior variable with a nonzero entry."""
        nv = len(interior_cells(self.k))
        heads = tuple(tuple(row[:nv]) for row in self.E.int_rows())
        b = tuple(tuple(row) for row in self.B.int_rows())
        rows_for = [[] for _ in range(nv)]
        for m, row in enumerate(heads):
            support = [t for t in range(nv) if row[t] != 0]
            if support:
                rows_for[max(support)].append(m)
        return heads, b, tuple(tuple(rows) for rows in rows_for)


@lru_cache(maxsize=16)
def build_system(k: int) -> HiveSystem:
    """Materialize E_k and B_k in the documented inequality order."""
    if k < 2:
        raise ValueError("k must be >= 2")
    cells = interior_cells(k)
    cell_index = {c: t for t, c in enumerate(cells)}
    ineqs = _inequalities(k)
    n = len(ineqs)
    if n != 3 * comb(k, 2):
        raise RuntimeError(f"expected 3 C(k,2) rhombus inequalities, got {n}")
    e_rows = []
    b_rows = []
    for m, (name, boxed, unboxed) in enumerate(ineqs):
        e_row = [0] * len(cells) + [0] * n
        e_row[len(cells) + m] = 1
        lam_c = [0] * k
        mu_c = [0] * k
        nu_c = [0] * k
        for sign, cells_of in ((1, unboxed), (-1, boxed)):
            for c in cells_of:
                if _is_boundary(k, *c):
                    cl, cm, cn = _boundary_form(k, *c)
                    # boundary terms move across: boxed adds, unboxed subtracts
                    for t in range(k):
                        lam_c[t] -= sign * cl[t]
                        mu_c[t] -= sign * cm[t]
                        nu_c[t] -= sign * cn[t]
                else:
                    e_row[cell_index[c]] += sign
        e_rows.append(e_row)
        b_rows.append(lam_c + mu_c + nu_c)
    return HiveSystem(
        k,
        MatrixQ.from_rows(e_rows),
        MatrixQ.from_rows(b_rows),
        tuple(name for name, _, _ in ineqs),
    )


def count_via_system(system: HiveSystem, lam, mu, nu) -> int:
    """Count solutions of E x = B (lambda mu nu) over nonnegative ints.

    The triple is read through typea.padded_triple at system.k; zero
    unless |lam| + |mu| = |nu|.  Backtracks over the interior
    variables in declared order, bounding each from the rows in which it
    is the only unassigned interior variable; the slacks are then
    determined and checked >= 0.  Must agree with hive_count on every
    input.
    """
    lam, mu, nu, _ = typea.padded_triple(lam, mu, nu, system.k)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    heads, b_rows, rows_for = system._search_rows
    rhs = lam + mu + nu
    b = [sum(map(mul, row, rhs)) for row in b_rows]
    nv = len(rows_for)
    x = [0] * nv
    count = 0

    def search(t: int):
        nonlocal count
        if t == nv:
            if all(
                bm - sum(map(mul, head, x)) >= 0
                for bm, head in zip(b, heads)
            ):
                count += 1
            return
        lo, hi = 0, None
        for m in rows_for[t]:
            partial = sum(map(mul, heads[m][:t], x))
            if heads[m][t] > 0:
                bound = b[m] - partial
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = max(lo, partial - b[m])
        if hi is None:
            raise RuntimeError("interior variable with no upper bound")
        for v in range(lo, hi + 1):
            x[t] = v
            search(t + 1)

    search(0)
    return count
