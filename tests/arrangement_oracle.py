"""Steinberg's hyperplane arrangement by a Fraction enumeration, as a
test oracle.

`steinberg.enumerate_hyperplanes` runs over the Weyl plan and the int
wall table; this module keeps the independent enumeration it replaced,
with the Fraction root data it reads.  Every (sigma, tau, theta, j)
tuple builds its wall theta(omega_j) with `act` from the fundamental
weight and its delta shifts from `build(k).delta`, all in Fractions.
"""

from dataclasses import dataclass
from fractions import Fraction

from lrpoly import typea
from lrpoly.kostant import _primitive


@dataclass(frozen=True)
class RootSystemData:
    k: int
    simple_roots: tuple
    positive_roots: tuple
    fundamental_weights: tuple
    delta: tuple


def build(k: int) -> RootSystemData:
    """Root data for sl_k: simple/positive roots, fundamental weights, delta.

    Positive roots are e_i - e_j for i < j; the fundamental weight
    omega_i has i leading entries (k-i)/k and k-i trailing entries -i/k,
    so that <alpha_i, omega_j> is the Kronecker delta.  delta is the
    half-sum of the positive roots, (k-1, k-3, ..., -(k-1))/2.
    """
    if k < 2:
        raise ValueError("rank parameter k must be >= 2")
    simple = tuple(
        tuple(
            Fraction(1) if t == i else Fraction(-1) if t == i + 1 else Fraction(0)
            for t in range(k)
        )
        for i in range(k - 1)
    )
    positive = tuple(
        tuple(
            Fraction(1) if t == i else Fraction(-1) if t == j else Fraction(0)
            for t in range(k)
        )
        for i in range(k)
        for j in range(i + 1, k)
    )
    fundamental = tuple(
        tuple(
            Fraction(k - i, k) if t < i else Fraction(-i, k) for t in range(k)
        )
        for i in range(1, k)
    )
    delta = tuple(Fraction(k - 1 - 2 * t, 2) for t in range(k))
    return RootSystemData(k, simple, positive, fundamental, delta)


def dot(v, w) -> Fraction:
    if len(v) != len(w):
        raise ValueError("length mismatch")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(v, w)), Fraction(0))


def act(p, w) -> tuple:
    """Permutation action sending e_i to e_{p(i)}.

    The result's coordinate i is w's coordinate p^{-1}(i).
    """
    if len(p) != len(w):
        raise ValueError("length mismatch")
    inv = typea.invert(p)
    return tuple(Fraction(w[inv[i] - 1]) for i in range(len(w)))


def bar(parts, k: int) -> tuple:
    """GL weight to SL weight: subtract the mean from every coordinate."""
    padded = typea.pad_partition(parts, k)
    mean = Fraction(sum(padded), k)
    return tuple(Fraction(p) - mean for p in padded)


def conjugates_of_fundamental_weights(k: int) -> tuple:
    """Union of the S_k orbits of the fundamental weights, sorted.

    These are the wall normals of the Kostant chamber complex: the
    wall table divided by k.
    """
    return tuple(
        tuple(Fraction(x, k) for x in w) for w in typea.wall_table(k)
    )


def _delta_shift(sigma, delta) -> tuple:
    """sigma(delta) - delta."""
    return tuple(a - b for a, b in zip(act(sigma, delta), delta))


def raw_hyperplane(sigma, tau, theta, j, data) -> tuple:
    """(normal, shift) of <sigma(lam) + tau(mu) - nu, theta(omega_j)>.

    <sigma(lam), w> = sum_i lam_i w_{sigma(i)}, so the lambda block of
    the normal is w permuted by sigma (and likewise mu by tau); the
    shift is <2 delta - sigma(delta) - tau(delta), w>.
    """
    w = act(theta, data.fundamental_weights[j - 1])
    k = data.k
    normal = (
        tuple(w[sigma[i] - 1] for i in range(k))
        + tuple(w[tau[i] - 1] for i in range(k))
        + tuple(-x for x in w)
    )
    off = tuple(
        -a - b
        for a, b in zip(
            _delta_shift(sigma, data.delta), _delta_shift(tau, data.delta)
        )
    )
    return normal, dot(off, w)


def canonical(normal, shift) -> tuple:
    """(normal, shift) scaled so the normal is primitive, lead positive."""
    scaled = _primitive(normal)
    lead_raw = next(x for x in normal if x != 0)
    lead_new = next(x for x in scaled if x != 0)
    return scaled, shift * Fraction(lead_new) / lead_raw


def first_pairs(k: int) -> dict:
    """{canonical key: first (sigma, tau)} over every tuple in
    lexicographic (sigma, tau, theta, j) order."""
    data = build(k)
    perms = list(typea.all_permutations(k))
    first = {}
    for sigma in perms:
        for tau in perms:
            for theta in perms:
                for j in range(1, k):
                    key = canonical(*raw_hyperplane(sigma, tau, theta, j, data))
                    first.setdefault(key, (sigma, tau))
    return first
