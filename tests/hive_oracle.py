"""Hive counting by a dict-keyed search, as a test oracle.

`hive.hive_count` searches a flat list of int slots and counts the last
entry as one interval; this module keeps the search it replaced, which
reads every boundary entry from its (lambda, mu, nu) coefficient rows,
branches on every interior entry and re-checks each finished hive
against the full constraint list.
"""

from lrpoly import typea
from lrpoly.hive import _boundary_form, _inequalities, interior_cells


def _boundary_values(k: int, lam, mu, nu) -> dict:
    vals = {}
    for i in range(k + 1):
        for j in range(k + 1 - i):
            if i == 0 or j == 0 or i + j == k:
                cl, cm, cn = _boundary_form(k, i, j)
                vals[(i, j)] = (
                    sum(c * p for c, p in zip(cl, lam))
                    + sum(c * p for c, p in zip(cm, mu))
                    + sum(c * p for c, p in zip(cn, nu))
                )
    return vals


def _holds(values, boxed, unboxed) -> bool:
    return sum(values[c] for c in boxed) >= sum(values[c] for c in unboxed)


def hive_count(lam, mu, nu, k: int = None) -> int:
    """Number of integral k-hives with the given boundary.

    Zero unless |lam| + |mu| = |nu|; k defaults to typea.infer_k.  The
    interior entries are assigned in row-major order, each clamped to
    the interval implied by the constraints it is last in, and every
    finished hive is verified against all constraints.
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
    cells = interior_cells(k)
    rank = {c: t for t, c in enumerate(cells)}
    ineqs = _inequalities(k)
    by_last = {c: [] for c in cells}
    for _, boxed, unboxed in ineqs:
        interior = [c for c in boxed + unboxed if c in rank]
        if interior:
            by_last[max(interior, key=rank.get)].append((boxed, unboxed))
        elif not _holds(values, boxed, unboxed):
            return 0
    count = 0

    def search(t: int):
        nonlocal count
        if t == len(cells):
            if not all(_holds(values, b, u) for _, b, u in ineqs):
                raise RuntimeError("incremental bounds missed a constraint")
            count += 1
            return
        cell = cells[t]
        lo, hi = 0, None
        for boxed, unboxed in by_last[cell]:
            if cell in boxed:
                other = sum(values[c] for c in boxed if c != cell)
                lo = max(lo, sum(values[c] for c in unboxed) - other)
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
