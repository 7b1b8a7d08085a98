"""Steinberg's hyperplane arrangement by a Fraction enumeration, as a
test oracle.

`steinberg.enumerate_hyperplanes` runs over the Weyl plan and the int
wall table; this module keeps the independent enumeration it replaced.
Every (sigma, tau, theta, j) tuple builds its wall theta(omega_j) with
`typea.act` from the fundamental weight and its delta shifts from
`typea.build(k).delta`, all in Fractions.
"""

from fractions import Fraction

from lrpoly import typea
from lrpoly.kostant import _primitive


def _delta_shift(sigma, delta) -> tuple:
    """sigma(delta) - delta."""
    return tuple(a - b for a, b in zip(typea.act(sigma, delta), delta))


def raw_hyperplane(sigma, tau, theta, j, data) -> tuple:
    """(normal, shift) of <sigma(lam) + tau(mu) - nu, theta(omega_j)>.

    <sigma(lam), w> = sum_i lam_i w_{sigma(i)}, so the lambda block of
    the normal is w permuted by sigma (and likewise mu by tau); the
    shift is <2 delta - sigma(delta) - tau(delta), w>.
    """
    w = typea.act(theta, data.fundamental_weights[j - 1])
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
    return normal, typea.dot(off, w)


def canonical(normal, shift) -> tuple:
    """(normal, shift) scaled so the normal is primitive, lead positive."""
    scaled = _primitive(normal)
    lead_raw = next(x for x in normal if x != 0)
    lead_new = next(x for x in scaled if x != 0)
    return scaled, shift * Fraction(lead_new) / lead_raw


def first_pairs(k: int) -> dict:
    """{canonical key: first (sigma, tau)} over every tuple in
    lexicographic (sigma, tau, theta, j) order."""
    data = typea.build(k)
    perms = list(typea.all_permutations(k))
    first = {}
    for sigma in perms:
        for tau in perms:
            for theta in perms:
                for j in range(1, k):
                    key = canonical(*raw_hyperplane(sigma, tau, theta, j, data))
                    first.setdefault(key, (sigma, tau))
    return first
