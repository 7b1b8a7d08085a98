"""Type-A partitions, weights, permutations and the chamber walls.

Weights are tuples of Fractions in the standard e_i coordinates of
R^k; permutations are one-line tuples on {1..k}; the walls of the
Kostant chamber complex are one cached int table per k.  Partitions
are plain tuples of weakly decreasing nonnegative ints; trailing zeros
carry no meaning and are stripped by normalize_partition; count_by and
the counters that take a rank read a triple through padded_triple.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# partitions

def parse_partition(text: str) -> tuple:
    """Parse "3,2,1" (empty string = empty partition)."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad partition text: {text!r}")
    return validate_partition(parts)


def is_partition(parts) -> bool:
    """Are the (int) parts weakly decreasing and nonnegative?"""
    return list(parts) == sorted(parts, reverse=True) and (
        not parts or parts[-1] >= 0
    )


def validate_partition(parts) -> tuple:
    """The parts as ints; a non-partition or a part such as 1.5 raises."""
    raw = tuple(parts)
    parts = tuple(map(int, raw))
    if parts != raw:
        raise ValueError(f"non-integral part in {raw}")
    if not is_partition(parts):
        raise ValueError(f"not a partition (negative or increasing): {parts}")
    return parts


def normalize_partition(parts) -> tuple:
    """Strip trailing zeros; partitions are equal modulo padding."""
    parts = tuple(parts)
    n = len(parts)
    while n and parts[n - 1] == 0:
        n -= 1
    return parts[:n]


def infer_k(lam, mu, nu) -> int:
    """The rank a triple is counted in: its longest length, at least 2."""
    return max(2, *(len(normalize_partition(p)) for p in (lam, mu, nu)))


def pad_partition(parts, k: int) -> tuple:
    parts = normalize_partition(parts)
    if len(parts) > k:
        raise ValueError(f"partition {parts} has more than {k} parts")
    return parts + (0,) * (k - len(parts))


def padded_triple(lam, mu, nu, k: int = None) -> tuple:
    """(lam, mu, nu, k): the partition-triple contract of every counter.

    The parts are validated (validate_partition) and padded to k, which
    is infer_k unless given; an explicit k below a partition's length
    raises ValueError.  The sums are left to the caller to compare.
    """
    lam, mu, nu = map(validate_partition, (lam, mu, nu))
    if k is None:
        k = infer_k(lam, mu, nu)
    return pad_partition(lam, k), pad_partition(mu, k), pad_partition(nu, k), k


def format_partition(parts) -> str:
    return ",".join(str(p) for p in parts)


# ---------------------------------------------------------------------------
# weights

def weight(coords) -> tuple:
    return tuple(Fraction(x) for x in coords)


def to_simple_root_coords(v) -> tuple:
    """Coordinates of a sum-zero vector in the simple-root basis.

    v = sum_i b_i alpha_i with alpha_i = e_i - e_{i+1} gives
    b_i = v_1 + ... + v_i.
    """
    v = weight(v)
    if sum(v) != 0:
        raise ValueError("vector has nonzero coordinate sum")
    out = []
    acc = Fraction(0)
    for x in v[:-1]:
        acc += x
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# permutations (one-line form on {1..k})

def all_permutations(k: int):
    """All of S_k in lexicographic one-line order (the fixed total order)."""
    return itertools.permutations(range(1, k + 1))


def invert(p) -> tuple:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def inversions(p) -> int:
    k = len(p)
    return sum(1 for i in range(k) for j in range(i + 1, k) if p[i] > p[j])


# ---------------------------------------------------------------------------
# the walls of the Kostant chamber complex

@lru_cache(maxsize=8)
def wall_table(k: int) -> tuple:
    """The walls of the Kostant chamber complex as int vectors, sorted.

    One vector k 1_S - |S| per proper nonempty S of {1..k}: it is k times
    theta(omega_j) for j = |S| and any theta carrying {1..j} onto S, so
    the table is the union of the S_k orbits of the fundamental weights,
    scaled to ints.  w and -w (S and its complement) are both present.
    """
    if k < 2:
        raise ValueError("rank parameter k must be >= 2")
    walls = []
    for bits in itertools.product((0, 1), repeat=k):
        j = sum(bits)
        if 0 < j < k:
            walls.append(tuple(k * bit - j for bit in bits))
    return tuple(sorted(walls))
