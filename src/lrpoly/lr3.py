"""The complete chamber complex for coefficients of three-row partitions.

Eleven rays and eighteen maximal cones, each cone carrying the exact
affine polynomial that equals the Littlewood-Richardson coefficient on
it.  The complex is embedded as data (recomputing a common refinement
is out of scope); verify_cone checks every cone against independent
counting, which is the correctness argument for the data, and test_lr3
re-derives the kappa13/kappa14 rows by interpolation.  locate and
verify_cone validate a point once (the sum and the validity cones) and
then test it against the facet rows of every cone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from operator import le, mul
from types import MappingProxyType

from . import typea
from .exactla import MultiPolyQ, int_rref
from .hive import hive_count
from .steinberg import steinberg_count

VAR_NAMES = ("λ1", "λ2", "λ3", "μ1", "μ2", "μ3", "ν1", "ν2", "ν3")

DEFAULT_SEED = 1729

RAYS = {
    "a1": (1, 1, 1, 0, 0, 0, 1, 1, 1),
    "a2": (0, 0, 0, 1, 1, 1, 1, 1, 1),
    "b": (2, 1, 0, 2, 1, 0, 3, 2, 1),
    "c": (1, 1, 0, 1, 1, 0, 2, 1, 1),
    "d1": (1, 1, 0, 1, 0, 0, 1, 1, 1),
    "d2": (1, 0, 0, 1, 1, 0, 1, 1, 1),
    "e1": (1, 1, 0, 0, 0, 0, 1, 1, 0),
    "e2": (0, 0, 0, 1, 1, 0, 1, 1, 0),
    "f": (1, 0, 0, 1, 0, 0, 1, 1, 0),
    "g1": (1, 0, 0, 0, 0, 0, 1, 0, 0),
    "g2": (0, 0, 0, 1, 0, 0, 1, 0, 0),
}

# cone -> (generators, affine coefficients on lam1..lam3, mu1..mu3, nu1..nu3)
_CONE_TABLE = [
    ("kappa1", ("a1", "a2", "b", "c", "d1", "d2", "e1", "e2"),
     {1: -1, 4: -1, 6: 1}),
    ("kappa2", ("a1", "a2", "b", "c", "d1", "d2", "g1", "g2"),
     {7: 1, 8: -1}),
    ("kappa3", ("a1", "a2", "b", "c", "e1", "e2", "g1", "g2"),
     {0: 1, 3: 1, 6: -1}),
    ("kappa4", ("a1", "a2", "b", "d1", "d2", "e1", "e2", "f"),
     {6: 1, 7: -1}),
    ("kappa5", ("a1", "a2", "b", "d1", "d2", "f", "g1", "g2"),
     {1: 1, 4: 1, 8: -1}),
    ("kappa6", ("a1", "a2", "b", "e1", "e2", "f", "g1", "g2"),
     {2: -1, 5: -1, 8: 1}),
    ("kappa7", ("a1", "a2", "b", "c", "d1", "d2", "e1", "g1"),
     {2: 1, 3: 1, 8: -1}),
    ("kappa8", ("a1", "a2", "b", "c", "d1", "d2", "e2", "g2"),
     {0: 1, 5: 1, 8: -1}),
    ("kappa9", ("a1", "a2", "b", "c", "d1", "e1", "e2", "g2"),
     {0: 1, 1: -1}),
    ("kappa10", ("a1", "a2", "b", "c", "d2", "e1", "e2", "g1"),
     {3: 1, 4: -1}),
    ("kappa11", ("a1", "a2", "b", "c", "d1", "e1", "g1", "g2"),
     {1: -1, 5: -1, 7: 1}),
    ("kappa12", ("a1", "a2", "b", "c", "d2", "e2", "g1", "g2"),
     {2: -1, 4: -1, 7: 1}),
    ("kappa13", ("a1", "a2", "b", "d1", "d2", "e1", "f", "g1"),
     {0: -1, 5: -1, 6: 1}),
    ("kappa14", ("a1", "a2", "b", "d1", "d2", "e2", "f", "g2"),
     {2: -1, 3: -1, 6: 1}),
    ("kappa15", ("a1", "a2", "b", "d1", "e1", "f", "g1", "g2"),
     {4: 1, 5: -1}),
    ("kappa16", ("a1", "a2", "b", "d2", "e2", "f", "g1", "g2"),
     {1: 1, 2: -1}),
    ("kappa17", ("a1", "a2", "b", "d1", "e1", "e2", "f", "g2"),
     {0: 1, 4: 1, 7: -1}),
    ("kappa18", ("a1", "a2", "b", "d2", "e1", "e2", "f", "g1"),
     {1: 1, 3: 1, 7: -1}),
]

# the lambda/mu swap fixes b, c, f and exchanges the numbered pairs
RAY_SWAP = {
    "a1": "a2", "a2": "a1", "b": "b", "c": "c", "d1": "d2", "d2": "d1",
    "e1": "e2", "e2": "e1", "f": "f", "g1": "g2", "g2": "g1",
}


@dataclass(frozen=True)
class ConeK3:
    name: str
    generators: tuple
    polynomial: MultiPolyQ


@lru_cache(maxsize=1)
def load_k3():
    """The 18 cones (a tuple) and a read-only ray table, checked once."""
    cones = []
    for name, gens, coeffs in _CONE_TABLE:
        poly = MultiPolyQ.linear(9, 1, coeffs)
        if not (
            len(gens) == 8
            and poly.total_degree() <= 1
            and poly.coefficient((0,) * 9) == 1
            and all(c.denominator == 1 for _, c in poly.terms)
        ):
            raise RuntimeError(f"cone {name} is malformed in the k=3 table")
        cones.append(ConeK3(name, gens, poly))
    if len(cones) != 18 or len(RAYS) != 11:
        raise RuntimeError("the k=3 table needs 18 cones over 11 rays")
    for ray, coords in RAYS.items():
        if sum(coords[0:3]) + sum(coords[3:6]) != sum(coords[6:9]):
            raise RuntimeError(f"ray {ray} breaks |lambda| + |mu| = |nu|")
    return tuple(cones), MappingProxyType(dict(RAYS))


@lru_cache(maxsize=32)
def _facet_rows(generators: tuple) -> tuple:
    """The int rows of d G^-1, G the 8x8 generator block without nu3.

    Every ray and every tested point satisfy the sum constraint, which
    fixes nu3, so a point p is in the cone exactly when G^-1 p[:8] >= 0:
    when each row has a nonnegative dot product with p[:8].  The rows
    come from int_rref on [G | I], with d = |det G|.
    """
    rows, d, pivots = int_rref(
        [RAYS[g][r] for g in generators] + [int(r == c) for c in range(8)]
        for r in range(8)
    )
    if pivots != tuple(range(8)):
        raise RuntimeError(f"cone generators {generators} have rank < 8")
    sign = 1 if d > 0 else -1
    return tuple(tuple(sign * x for x in row[8:]) for row in rows)


def split_point(point):
    point = tuple(point)
    if len(point) != 9:
        raise ValueError("point must have 9 coordinates")
    return point[0:3], point[3:6], point[6:9]


def _inside(lam, mu, nu) -> bool:
    """The validity cones but the sum: partitions, lam_i, mu_i <= nu_i."""
    return all(map(typea.is_partition, (lam, mu, nu))) and all(
        map(le, lam + mu, nu + nu)
    )


def satisfies_validity_cones(point) -> bool:
    """lam_i, mu_i <= nu_i plus the sum constraint, and all three
    blocks weakly decreasing and nonnegative."""
    lam, mu, nu = split_point(point)
    return sum(lam) + sum(mu) == sum(nu) and _inside(lam, mu, nu)


def _head(point):
    """The point's first eight coordinates, or None outside the validity
    cones; the per-point half of every membership test."""
    lam, mu, nu = split_point(point)
    if sum(lam) + sum(mu) != sum(nu):
        raise ValueError("point violates |lambda| + |mu| = |nu|")
    return lam + mu + nu[:2] if _inside(lam, mu, nu) else None


def _in_cone(head, cone: ConeK3) -> bool:
    """The per-cone half: every facet row of the cone is >= 0 on head."""
    for row in _facet_rows(cone.generators):
        if sum(map(mul, row, head)) < 0:
            return False
    return True


def membership(point, cone: ConeK3) -> bool:
    """Is the point in the cone (and in the validity cones)?"""
    head = _head(point)
    return head is not None and _in_cone(head, cone)


def _containing(point) -> list:
    """Every cone containing the point, the point validated once."""
    head = _head(point)
    if head is None:
        return []
    cones, _ = load_k3()
    return [c for c in cones if _in_cone(head, c)]


def locate(point) -> list:
    """Names of every cone containing the point.

    The point is validated once (sum, validity cones), then tested
    against the facet rows of each of the 18 cones.
    """
    return [c.name for c in _containing(point)]


def swap_lambda_mu(point) -> tuple:
    lam, mu, nu = split_point(point)
    return tuple(mu) + tuple(lam) + tuple(nu)


def swap_polynomial(poly: MultiPolyQ) -> MultiPolyQ:
    """Exchange the lambda and mu variables of a 9-variable polynomial."""
    swapped = {}
    for e, c in poly.terms:
        swapped[tuple(e[3:6]) + tuple(e[0:3]) + tuple(e[6:9])] = c
    return MultiPolyQ.from_terms(9, swapped)


def cone_swap_image(cone: ConeK3, cones) -> ConeK3:
    """The cone whose generator set is the swapped generator set."""
    target = frozenset(RAY_SWAP[g] for g in cone.generators)
    for other in cones:
        if frozenset(other.generators) == target:
            return other
    raise LookupError(f"no swap image for {cone.name}")


def interior_points(cone: ConeK3, samples: int, seed: int):
    """The all-generators sum plus seeded random positive combinations."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = random.Random(seed)
    pts = []
    gens = [RAYS[g] for g in cone.generators]
    pts.append(tuple(sum(col) for col in zip(*gens)))
    while len(pts) < samples:
        coeffs = [rng.randint(1, 5) for _ in gens]
        pts.append(
            tuple(
                sum(c * g[r] for c, g in zip(coeffs, gens)) for r in range(9)
            )
        )
    return pts


@dataclass(frozen=True)
class ConeVerification:
    cone: str
    points_checked: int
    passed: bool
    counterexamples: tuple  # (point, polynomial_value, count) triples


def verify_cone(
    cone: ConeK3,
    samples: int = 20,
    seed: int = DEFAULT_SEED,
    check_steinberg: bool = False,
) -> ConeVerification:
    """Compare the cone polynomial with actual counts on interior points.

    Every sampled point is also located in all cones containing it and
    the polynomials of those cones must agree there (a disagreement
    would be a data-entry error).  Each point is validated once, then
    tested against the facet rows of all 18 cones.
    """
    bad = []
    pts = interior_points(cone, samples, seed)
    for p in pts:
        value = cone.polynomial.evaluate(p)
        lam, mu, nu = split_point(p)
        count = hive_count(lam, mu, nu, 3)
        ok = value == count
        if ok and check_steinberg:
            ok = steinberg_count(lam, mu, nu, 3) == count
        if ok:
            ok = all(
                other.polynomial.evaluate(p) == count
                for other in _containing(p)
                if other.name != cone.name
            )
        if not ok:
            bad.append((p, value, count))
    return ConeVerification(
        cone=cone.name,
        points_checked=len(pts),
        passed=not bad,
        counterexamples=tuple(bad),
    )


def export_json() -> str:
    """The complex as JSON: rays, generator lists, polynomials."""
    cones, rays = load_k3()
    payload = {
        "rays": {name: list(coords) for name, coords in sorted(rays.items())},
        "variables": list(VAR_NAMES),
        "cones": [
            {
                "name": c.name,
                "generators": list(c.generators),
                "polynomial": c.polynomial.to_json_dict(VAR_NAMES),
            }
            for c in cones
        ],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False)
