"""Hive counting and its linear-system encoding.

A k-hive is a triangular array a_{ij} (i, j >= 0, i+j <= k) whose
boundary is fixed by (lambda, mu, nu) and whose entries satisfy three
families of rhombus inequalities.  Counting integral hives gives the
Littlewood-Richardson coefficient.  build_system rewrites the
inequalities as E x = B (lambda mu nu) with slack variables, so the same
number is a vector partition function; count_via_system solves that
system by backtracking, independently of the hive-array search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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


def _boundary_values(k: int, lam, mu, nu) -> dict:
    vals = {}
    for i in range(k + 1):
        for j in range(k + 1 - i):
            if not _is_boundary(k, i, j):
                continue
            cl, cm, cn = _boundary_form(k, i, j)
            vals[(i, j)] = (
                sum(c * p for c, p in zip(cl, lam))
                + sum(c * p for c, p in zip(cm, mu))
                + sum(c * p for c, p in zip(cn, nu))
            )
    return vals


def _holds(values, boxed, unboxed) -> bool:
    return sum(values[c] for c in boxed) >= sum(values[c] for c in unboxed)


class _HivePlan(NamedTuple):
    cells: tuple          # interior cells in search order
    ineqs: tuple          # every (name, boxed, unboxed) constraint
    by_last: dict         # cell -> ((boxed, unboxed), ...) it is last in
    boundary_only: tuple  # (boxed, unboxed) pairs with no interior cell


@lru_cache(maxsize=16)
def _hive_plan(k: int) -> _HivePlan:
    """The k-hive constraints grouped by the interior cell assigned last."""
    cells = tuple(interior_cells(k))
    rank = {c: t for t, c in enumerate(cells)}
    ineqs = tuple(_inequalities(k))
    by_last = {c: [] for c in cells}
    boundary_only = []
    for _, boxed, unboxed in ineqs:
        interior = [c for c in boxed + unboxed if c in rank]
        if interior:
            by_last[max(interior, key=rank.get)].append((boxed, unboxed))
        else:
            boundary_only.append((boxed, unboxed))
    by_last = {c: tuple(group) for c, group in by_last.items()}
    return _HivePlan(cells, ineqs, by_last, tuple(boundary_only))


def hive_count(lam, mu, nu, k: int = None) -> int:
    """Number of integral k-hives with the given boundary.

    Zero immediately unless |lam| + |mu| = |nu|; k defaults to
    typea.infer_k.  The search assigns the interior entries in row-major
    order; each new entry is clamped to the exact integer interval
    implied by the constraints whose other entries are already fixed,
    and finished hives are re-verified against the full constraint list.
    """
    lam = typea.validate_partition(lam)
    mu = typea.validate_partition(mu)
    nu = typea.validate_partition(nu)
    if k is None:
        k = typea.infer_k(lam, mu, nu)
    lam, mu, nu = (typea.pad_partition(p, k) for p in (lam, mu, nu))
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    values = _boundary_values(k, lam, mu, nu)
    plan = _hive_plan(k)
    if not all(_holds(values, *pair) for pair in plan.boundary_only):
        return 0
    cells = plan.cells
    count = 0

    def search(t: int):
        nonlocal count
        if t == len(cells):
            if not all(_holds(values, b, u) for _, b, u in plan.ineqs):
                raise RuntimeError("incremental bounds missed a constraint")
            count += 1
            return
        cell = cells[t]
        lo, hi = 0, None
        for boxed, unboxed in plan.by_last[cell]:
            if cell in boxed:
                other = sum(values[c] for c in boxed if c != cell)
                bound = sum(values[c] for c in unboxed) - other
                lo = max(lo, bound)
            else:
                other = sum(values[c] for c in unboxed if c != cell)
                bound = sum(values[c] for c in boxed) - other
                hi = bound if hi is None else min(hi, bound)
        if hi is None:
            raise RuntimeError("interior entry with no upper bound")
        for v in range(lo, hi + 1):
            values[cell] = v
            search(t + 1)
        values.pop(cell, None)

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
        """E and B as int rows, and for each interior variable the rows in
        which it is the last interior variable with a nonzero entry."""
        nv = len(interior_cells(self.k))
        e = tuple(tuple(row) for row in self.E.int_rows())
        b = tuple(tuple(row) for row in self.B.int_rows())
        rows_for = [[] for _ in range(nv)]
        for m, row in enumerate(e):
            support = [t for t in range(nv) if row[t] != 0]
            if support:
                rows_for[max(support)].append(m)
        return e, b, tuple(tuple(rows) for rows in rows_for)


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

    Zero unless |lam| + |mu| = |nu|.  Backtracks over the interior
    variables in declared order, bounding each from the rows in which it
    is the only unassigned interior variable; the slacks are then
    determined and checked >= 0.  Must agree with hive_count on every
    input.
    """
    lam, mu, nu = (
        typea.pad_partition(typea.validate_partition(p), system.k)
        for p in (lam, mu, nu)
    )
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    e, b_rows, rows_for = system._search_rows
    rhs = lam + mu + nu
    b = [sum(map(mul, row, rhs)) for row in b_rows]
    nv = len(rows_for)
    x = [0] * nv
    count = 0

    def search(t: int):
        nonlocal count
        if t == nv:
            if all(
                b[m] - sum(e[m][u] * x[u] for u in range(nv)) >= 0
                for m in range(len(e))
            ):
                count += 1
            return
        lo, hi = 0, None
        for m in rows_for[t]:
            partial = sum(e[m][u] * x[u] for u in range(t))
            if e[m][t] > 0:
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
