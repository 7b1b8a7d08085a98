"""Littlewood-Richardson rule: skew semistandard tableaux with the
lattice-word condition, counted by direct backtracking.

This is deliberately the textbook construction, kept independent of the
hive and Steinberg counters so it can serve as an oracle for both.
"""

from __future__ import annotations

from . import typea


def lr_rule_count(lam, mu, nu) -> int:
    """Number of LR skew tableaux of shape nu/lam and content mu.

    Cells are filled in reverse reading order (each row right to left,
    rows top to bottom), which makes the lattice-word prefix condition,
    the row and column constraints, and the content budget all checkable
    as the filling grows.
    """
    lam = typea.normalize_partition(typea.validate_partition(lam))
    mu = typea.normalize_partition(typea.validate_partition(mu))
    nu = typea.normalize_partition(typea.validate_partition(nu))
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    if len(lam) > len(nu) or any(
        l > n for l, n in zip(lam, nu)
    ):
        return 0  # lam not contained in nu
    rows = len(nu)
    lam = lam + (0,) * (rows - len(lam))
    nvals = len(mu)
    if nvals == 0:
        return 1 if lam == nu else 0

    cells = []  # reverse reading order
    for r in range(rows):
        for c in range(nu[r] - 1, lam[r] - 1, -1):
            cells.append((r, c))

    entry = {}
    remaining = list(mu)
    prefix = [0] * nvals

    def fits(r, c, v) -> bool:
        if remaining[v] == 0:
            return False
        # lattice word: after placing v, #v <= #(v-1) must still hold
        if v > 0 and prefix[v] + 1 > prefix[v - 1]:
            return False
        # value v+1 sits in row >= v (columns strict), cheap cutoff
        if v > r:
            return False
        right = entry.get((r, c + 1))
        if right is not None and v > right:
            return False
        above = entry.get((r - 1, c))
        if above is not None and v <= above:
            return False
        return True

    # Depth-first over cells with an explicit stack of placed values, so
    # the depth (one level per cell of nu/lam) is not bounded by the
    # interpreter's recursion limit.
    placed = []
    count = 0
    v = 0
    while True:
        t = len(placed)
        if t == len(cells):
            count += 1
        else:
            r, c = cells[t]
            while v < nvals and not fits(r, c, v):
                v += 1
            if v < nvals:
                entry[(r, c)] = v
                remaining[v] -= 1
                prefix[v] += 1
                placed.append(v)
                v = 0
                continue
        if not placed:
            return count
        # backtrack: take back the last placement, try its next value
        v = placed.pop()
        del entry[cells[len(placed)]]
        remaining[v] += 1
        prefix[v] -= 1
        v += 1
