"""Steinberg's formula, the associated hyperplane arrangement, and
empirical polynomiality of the coefficient count over its regions.

The count is the signed double sum over pairs of Weyl-group elements of
Kostant partition values at shifted points.  Each shifted point moves
continuously with (lambda, mu, nu); the arrangement collects every
hyperplane on which some point meets a wall of the Kostant chamber
complex.  Within one region all points keep their chambers, so the
count is one fixed polynomial there; verify_region_polynomial recovers
that polynomial with exactla.fit_poly, one exact fit that checks every
sample beyond those that determine it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from operator import add, mul, sub

from . import kostant, typea
from .exactla import UnderdeterminedSystemError, fit_poly
from .hive import hive_count


def _delta_shift(sigma) -> tuple:
    """sigma(delta) - delta as ints: delta_{sigma^-1(i)} - delta_i at i."""
    inv = typea.invert(sigma)
    return tuple(i + 1 - inv[i] for i in range(len(sigma)))


@lru_cache(maxsize=8)
def _weyl_plan(k: int) -> tuple:
    """(sign, index map, delta shift) of every sigma in S_k, lexicographic.

    Coordinate i of sigma(w) is w_{sigma^-1(i)}, so the index map is
    sigma^-1 (0-based).  The plan has one entry per permutation; pairs
    (sigma, tau) are formed on the fly and never stored.
    """
    if k < 2:
        raise ValueError("rank parameter k must be >= 2")
    return tuple(
        (
            -1 if typea.inversions(sigma) % 2 else 1,
            tuple(i - 1 for i in typea.invert(sigma)),
            _delta_shift(sigma),
        )
        for sigma in typea.all_permutations(k)
    )


def _images(w, k: int) -> list:
    """(sign(sigma), sigma(w + delta) - delta) per sigma, in plan order."""
    return [
        (sign, tuple(w[j] + d for j, d in zip(inv, shift)))
        for sign, inv, shift in _weyl_plan(k)
    ]


def _shifted_points(lam, mu, nu, k: int):
    """(sign, point) for every pair (sigma, tau), in lexicographic order.

    The point sigma(lam + delta) + tau(mu + delta) - nu - 2 delta is an
    int tuple; sign is sign(sigma) sign(tau).  A sum mismatch raises
    ValueError.
    """
    lam, mu, nu, _ = typea.padded_triple(lam, mu, nu, k)
    if sum(lam) + sum(mu) != sum(nu):
        raise ValueError("|lambda| + |mu| must equal |nu|")
    right = _images(mu, k)
    for sa, a in _images(lam, k):
        a = tuple(map(sub, a, nu))
        for sb, b in right:
            yield sa * sb, tuple(map(add, a, b))


def _exact(w) -> tuple:
    """A weight as ints when it is integral, else as Fractions."""
    w = typea.weight(w)
    if all(x.denominator == 1 for x in w):
        return tuple(x.numerator for x in w)
    return w


def _by_fraction(terms, side: int) -> dict:
    """Group (sign, v) by the fractional part f of side * v.

    A left vector (side 1) and a right one (side -1) sum to an integral
    point exactly when their f agree; each is stored as its sign and the
    prefix sums of the int vector v - side * f, its first k - 1
    simple-root coordinates, which add up over a pair.
    """
    groups = {}
    for sign, v in terms:
        part = tuple(side * x % 1 for x in v)
        v = tuple(int(x - side * f) for x, f in zip(v, part))
        groups.setdefault(part, []).append(
            (sign, tuple(itertools.accumulate(v[:-1])))
        )
    return groups


def steinberg_sum(lam_w, mu_w, nu_w, k: int) -> int:
    """The signed Kostant sum for arbitrary weight vectors of length k.

    Each pair counts kostant._count_from at the sum of the two prefix
    sums, the simple-root coordinates of its shifted point.  When one is
    negative the point lies outside pos(M), where the Kostant partition
    function is 0, so the pair is skipped.  A whole sigma row is skipped
    when one of its prefix sums stays negative even against the largest
    right-hand prefix sum at that coordinate.
    """
    lam_w, mu_w, nu_w = (_exact(w) for w in (lam_w, mu_w, nu_w))
    if any(len(w) != k for w in (lam_w, mu_w, nu_w)):
        raise ValueError("weight length does not match k")
    if sum(lam_w) + sum(mu_w) != sum(nu_w):
        raise ValueError("weight has nonzero coordinate sum")
    left = _by_fraction(
        ((sign, tuple(map(sub, a, nu_w))) for sign, a in _images(lam_w, k)), 1
    )
    right = _by_fraction(_images(mu_w, k), -1)
    count = kostant._count_from
    total = 0
    for part, terms in left.items():
        others = right.get(part)
        if not others:
            continue
        top = tuple(map(max, zip(*(pb for _, pb in others))))
        for sa, pa in terms:
            if min(map(add, pa, top)) < 0:
                continue
            for sb, pb in others:
                b = tuple(map(add, pa, pb))
                if min(b) >= 0:
                    total += sa * sb * count(b)
    return total


def steinberg_count(lam, mu, nu, k: int = None) -> int:
    """Littlewood-Richardson coefficient via Steinberg's formula.

    The triple is read through typea.padded_triple (validation, k
    inferred unless given, padding to k); zero unless |lam| + |mu| = |nu|.
    """
    lam, mu, nu, k = typea.padded_triple(lam, mu, nu, k)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    return steinberg_sum(lam, mu, nu, k)


def steinberg_count_via_chambers(lam, mu, nu, k: int) -> int:
    """Same sum, but each Kostant value comes from a chamber polynomial.

    Only for k <= 3 (needs the explicit chamber decomposition) and
    generic triples, where every shifted point inside the cone lies in
    the open interior of a unique region.
    """
    if k > 3:
        raise ValueError("chamber evaluation only supported for k <= 3")
    if not is_generic(lam, mu, nu, k):
        raise ValueError("triple is not generic")
    n = k - 1
    chambers = kostant.kostant_chambers(n)
    walls = kostant.wall_hyperplanes(n)
    total = 0
    for sign, v in _shifted_points(lam, mu, nu, k):
        b = tuple(itertools.accumulate(v[:-1]))
        region = kostant.region_containing(chambers, walls, b)
        if region is None:
            continue  # outside pos(M): contributes 0
        total += sign * region.polynomial.evaluate(b)
    if total.denominator != 1:
        raise RuntimeError("chamber polynomials summed to a non-integer")
    return total.numerator


def _hyperplane_key(normal, shift) -> tuple:
    """(normal, shift) scaled to coprime ints, the normal's lead positive.

    Both must be ints; the shift is a multiple of the normal's gcd for
    every arrangement hyperplane, so the key is exact.
    """
    g = gcd(*normal)
    if next(x for x in normal if x) < 0:
        g = -g
    return tuple(x // g for x in normal), shift // g


@dataclass(frozen=True)
class SteinbergHyperplane:
    """One wall <sigma(lam)+tau(mu)-nu, theta(omega_j)> = shift.

    normal holds the raw coefficients on (lambda | mu | nu) and shift
    the delta-shift <2 delta - sigma(delta) - tau(delta), theta(omega_j)>.
    Each block of the normal sums to zero (omega_j does), so the equation
    is already adapted to the subspace |lambda| + |mu| = |nu| and two
    hyperplanes agree there iff their (normal, shift) pairs are nonzero
    multiples of each other.
    """

    sigma: tuple
    tau: tuple
    theta: tuple
    j: int
    normal: tuple
    shift: Fraction

    def canonical(self):
        """The dedupe key of enumerate_hyperplanes: (normal, shift) as
        coprime ints with the normal's first nonzero entry positive."""
        k = len(self.normal) // 3
        return _hyperplane_key(
            tuple(int(k * x) for x in self.normal), int(k * self.shift)
        )


def enumerate_hyperplanes(k: int) -> list:
    """All arrangement hyperplanes, deduplicated up to nonzero scaling.

    Runs over every pair (sigma, tau) of the Weyl plan and every wall w
    of typea.wall_table, in ints scaled by k: <sigma(lam), w> is
    sum_i lam_i w_{sigma(i)}, so the lambda block of the normal is w
    permuted by sigma (mu likewise by tau), and the shift is
    -<d_sigma + d_tau, w> with d = sigma(delta) - delta.  Tuples with one
    canonical key collapse to the first; w and -w always do, so the kept
    (theta, j) is either wall of the pair.
    """
    walls = typea.wall_table(k)
    perms = list(
        zip(typea.all_permutations(k), (d for _, _, d in _weyl_plan(k)))
    )
    seen = {}
    for sigma, d_sigma in perms:
        for tau, d_tau in perms:
            off = tuple(map(add, d_sigma, d_tau))
            for w in walls:
                normal = tuple(w[i - 1] for i in sigma + tau)
                normal += tuple(-x for x in w)
                shift = -sum(map(mul, off, w))
                key = _hyperplane_key(normal, shift)
                if key in seen:
                    continue
                # the first theta with k theta(omega_j) = w lists the
                # coordinates where w is positive first
                theta = sorted(range(1, k + 1), key=lambda i: w[i - 1] < 0)
                seen[key] = SteinbergHyperplane(
                    sigma, tau, tuple(theta), sum(x > 0 for x in w),
                    tuple(Fraction(x, k) for x in normal), Fraction(shift, k),
                )
    return list(seen.values())


def max_delta_shift(k: int) -> int:
    """Largest |delta-shift| over all tuples, before any normalization.

    The shift of (sigma, tau, w) is -<d_sigma + d_tau, w / k> with
    d = sigma(delta) - delta.  For a fixed w the largest |x + y| over x,
    y from one set is twice its largest |x|, so one pass over S_k finds
    the bound.  It is an int: d sums to 0, so <d, w> = k sum_{i in S} d_i.
    """
    return 2 * max(
        abs(sum(map(mul, d, w)))
        for _, _, d in _weyl_plan(k)
        for w in typea.wall_table(k)
    ) // k


def _wall_signs(lam, mu, nu, k: int):
    """Sign (-1, 0 or 1) of every shifted point against every wall.

    Rows follow the pairs (sigma, tau) in lexicographic order, columns
    the wall table; a 0 puts a shifted point on a wall.
    """
    walls = typea.wall_table(k)
    for _, v in _shifted_points(lam, mu, nu, k):
        for w in walls:
            d = sum(map(mul, v, w))
            yield (d > 0) - (d < 0)


def is_generic(lam, mu, nu, k: int) -> bool:
    """True when no shifted point lies on a Kostant chamber wall; a sum
    mismatch raises ValueError."""
    return 0 not in _wall_signs(lam, mu, nu, k)


@dataclass(frozen=True)
class TypeSignature:
    """Sign of every shifted point against every wall normal.

    Rows follow S_k x S_k in lexicographic one-line order, columns
    typea.wall_table; entries are strictly +-1 for generic input.
    Equal signatures put two triples in the same arrangement region.
    """

    k: int
    signs: tuple

    def digest(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)


class NotGenericError(ValueError):
    """A shifted point of the triple lies on a Kostant chamber wall."""


def type_signature(lam, mu, nu, k: int) -> TypeSignature:
    """The triple's signature; ValueError unless |lam| + |mu| = |nu|,
    NotGenericError when the triple is not generic."""
    signs = tuple(_wall_signs(lam, mu, nu, k))
    if 0 in signs:
        raise NotGenericError("triple is not generic")
    return TypeSignature(k, signs)


# ---------------------------------------------------------------------------
# per-region polynomiality

def free_coordinates(lam, mu, nu, k: int) -> tuple:
    """(lam_1..lam_k, mu_1..mu_{k-1}, nu_1..nu_k): mu_k is dependent."""
    lam, mu, nu, _ = typea.padded_triple(lam, mu, nu, k)
    return lam + mu[:-1] + nu


def triple_from_free(coords, k: int):
    lam = coords[:k]
    mu_head = coords[k : 2 * k - 1]
    nu = coords[2 * k - 1 :]
    mu_last = sum(nu) - sum(lam) - sum(mu_head)
    return lam, tuple(mu_head) + (mu_last,), tuple(nu)


def _perturbations(nfree: int, radius: int):
    """Integer offsets ordered radius- then sparsity-first: the zero
    vector, then every +-1 offset starting with the single-entry ones,
    then offsets involving +-2, and so on.  Unit offsets lead so the
    collected neighborhood spans affinely as soon as possible."""
    yield (0,) * nfree
    for r in range(1, radius + 1):
        magnitudes = [m for rr in range(1, r + 1) for m in (rr, -rr)]
        for nnz in range(1, nfree + 1):
            for support in itertools.combinations(range(nfree), nnz):
                for vals in itertools.product(magnitudes, repeat=nnz):
                    if max(abs(v) for v in vals) != r:
                        continue
                    d = [0] * nfree
                    for i, v in zip(support, vals):
                        d[i] = v
                    yield tuple(d)


def same_region_samples(
    lam, mu, nu, k: int, count: int, radius: int = 2, budget: int = 20000
):
    """Lattice triples near the seed with the seed's type signature.

    Walks integer perturbations of the free coordinates (sparse offsets
    first); every hit is a valid partition triple, generic, and in the
    same arrangement region as the seed.  Stops after `count` hits or
    `budget` candidates.
    """
    seed_sig = type_signature(lam, mu, nu, k)
    seed_free = free_coordinates(lam, mu, nu, k)
    nfree = len(seed_free)
    found = []
    for d in itertools.islice(_perturbations(nfree, radius), budget):
        coords = tuple(s + x for s, x in zip(seed_free, d))
        cl, cm, cn = triple_from_free(coords, k)
        if not all(map(typea.is_partition, (cl, cm, cn))):
            continue
        # the seed's signs have no 0, so equal signs imply generic
        if tuple(_wall_signs(cl, cm, cn, k)) != seed_sig.signs:
            continue
        found.append((cl, cm, cn))
        if len(found) >= count:
            break
    return found


def verify_region_polynomial(lam, mu, nu, k: int, sample_count: int = 24):
    """Fit the region's polynomial and verify it on held-out samples.

    Collects sample_count same-signature lattice triples around the
    generic seed, counts each with hive_count, and fits a polynomial of
    total degree <= C(k-1,2) in the free coordinates with fit_poly,
    which solves on the first samples that determine it and checks every
    other sample exactly.  Returns (polynomial, True), or (None, False)
    when a held-out sample misses the fit.  A seed that is not generic
    raises NotGenericError (from type_signature); too few samples, or
    samples that do not determine the polynomial, raise RuntimeError.
    """
    degree = comb(k - 1, 2)
    nfree = 3 * k - 1
    samples = same_region_samples(lam, mu, nu, k, sample_count)
    nmono = comb(nfree + degree, degree)
    if len(samples) < nmono + 3:
        raise RuntimeError(
            f"only {len(samples)} same-region samples found, "
            f"need at least {nmono + 3}"
        )
    data = [
        (free_coordinates(cl, cm, cn, k), hive_count(cl, cm, cn, k))
        for cl, cm, cn in samples
    ]
    try:
        poly = fit_poly(data, nfree, degree)
    except UnderdeterminedSystemError as err:
        raise RuntimeError(
            f"collected samples do not determine the polynomial: {err}"
        ) from err
    return poly, poly is not None
