import itertools
import json
import random
from fractions import Fraction
from operator import add, mul

import pytest

from cone_oracle import solve_nonneg_combination
from conftest import partitions_up_to
from elimination_oracle import solve_exact
from lrpoly import lr3
from lrpoly.exactla import (
    MatrixQ,
    MultiPolyQ,
    UnderdeterminedSystemError,
    fit_poly,
)
from lrpoly.hive import hive_count
from lrpoly.typea import pad_partition


@pytest.fixture(scope="module")
def complex_data():
    return lr3.load_k3()


def test_structure(complex_data):
    cones, rays = complex_data
    assert len(cones) == 18
    assert len(rays) == 11
    for cone in cones:
        assert len(cone.generators) == 8
        assert cone.polynomial.total_degree() <= 1
        assert cone.polynomial.coefficient((0,) * 9) == 1


def test_load_k3_rejects_a_malformed_table(monkeypatch):
    name, gens, coeffs = lr3._CONE_TABLE[0]
    table = [(name, gens[:7], coeffs)] + lr3._CONE_TABLE[1:]
    lr3.load_k3.cache_clear()
    monkeypatch.setattr(lr3, "_CONE_TABLE", table)
    try:
        with pytest.raises(RuntimeError, match="malformed"):
            lr3.load_k3()
    finally:
        lr3.load_k3.cache_clear()


def test_load_k3_is_built_once_and_read_only():
    first = lr3.load_k3()
    assert lr3.load_k3() is first
    cones, rays = first
    assert isinstance(cones, tuple)
    with pytest.raises(TypeError):
        rays["b"] = (0,) * 9
    with pytest.raises(TypeError):
        del rays["b"]
    assert rays == lr3.RAYS
    for cached in (lr3.load_k3, lr3._facet_rows):
        assert cached.cache_info().maxsize is not None


def test_pinned_table_rows(complex_data):
    cones, _ = complex_data
    by_name = {c.name: c for c in cones}
    assert by_name["kappa2"].polynomial == MultiPolyQ.linear(9, 1, {7: 1, 8: -1})
    assert by_name["kappa6"].polynomial == MultiPolyQ.linear(
        9, 1, {2: -1, 5: -1, 8: 1}
    )
    assert by_name["kappa9"].polynomial == MultiPolyQ.linear(9, 1, {0: 1, 1: -1})
    assert by_name["kappa1"].polynomial == MultiPolyQ.linear(
        9, 1, {1: -1, 4: -1, 6: 1}
    )
    assert by_name["kappa1"].generators == (
        "a1", "a2", "b", "c", "d1", "d2", "e1", "e2",
    )


def test_rays_satisfy_sum_constraint(complex_data):
    _, rays = complex_data
    for coords in rays.values():
        lam, mu, nu = lr3.split_point(coords)
        assert sum(lam) + sum(mu) == sum(nu)


def test_ray_b_belongs_to_all_cones(complex_data):
    cones, rays = complex_data
    for cone in cones:
        assert lr3.membership(rays["b"], cone), cone.name
    assert set(lr3.locate(rays["b"])) == {c.name for c in cones}


def test_generator_membership(complex_data):
    cones, rays = complex_data
    for cone in cones:
        if "a1" in cone.generators:
            assert lr3.membership(rays["a1"], cone)


def test_validity_cone_rejection():
    # lambda_1 > nu_1 fails the containment cone
    point = (4, 0, 0, 0, 0, 0, 3, 1, 0)
    cones, _ = lr3.load_k3()
    assert not lr3.membership(point, cones[0])
    assert lr3.locate(point) == []


def test_membership_requires_sum_match(complex_data):
    cones, _ = complex_data
    with pytest.raises(ValueError):
        lr3.membership((1, 0, 0, 0, 0, 0, 2, 0, 0), cones[0])


def test_origin_is_in_every_cone(complex_data):
    cones, _ = complex_data
    assert set(lr3.locate((0,) * 9)) == {c.name for c in cones}


def test_interior_point_of_kappa2_locates_there(complex_data):
    cones, rays = complex_data
    cone = next(c for c in cones if c.name == "kappa2")
    total = tuple(
        sum(rays[g][r] for g in cone.generators) for r in range(9)
    )
    assert "kappa2" in lr3.locate(total)


def test_every_polynomial_at_ray_b_gives_two(complex_data):
    cones, rays = complex_data
    b = rays["b"]
    assert hive_count((2, 1, 0), (2, 1, 0), (3, 2, 1), 3) == 2
    for cone in cones:
        assert cone.polynomial.evaluate(b) == 2, cone.name


def test_kappa9_with_equal_first_rows(complex_data):
    cones, rays = complex_data
    cone = next(c for c in cones if c.name == "kappa9")
    # a1 + c has lambda_1 = lambda_2, so the polynomial drops to 1
    point = tuple(rays["a1"][r] + rays["c"][r] for r in range(9))
    lam, mu, nu = lr3.split_point(point)
    assert lam[0] == lam[1]
    assert cone.polynomial.evaluate(point) == 1
    assert hive_count(lam, mu, nu, 3) == 1


def test_verify_cone_passes(complex_data):
    cones, _ = complex_data
    for cone in cones[:4]:
        report = lr3.verify_cone(cone, samples=8, seed=3)
        assert report.passed
        assert report.points_checked == 8
        assert report.counterexamples == ()


def test_verify_cone_catches_bad_polynomial(complex_data):
    cones, _ = complex_data
    good = cones[0]
    tampered = lr3.ConeK3(
        good.name,
        good.generators,
        good.polynomial + MultiPolyQ.constant(9, 1),
    )
    report = lr3.verify_cone(tampered, samples=4, seed=3)
    assert not report.passed
    assert report.counterexamples


def test_verify_cone_checks_every_other_containing_cone(monkeypatch):
    # kappa1's sample points are interior, so only a second cone on the
    # same generators also contains them.  load_k3 wants 18 rows, each
    # with constant term 1, so the twin takes kappa18's row (which holds
    # none of those points) and its polynomial is kappa1's plus nu1, which
    # is >= 1 on every nonzero point of the cone.
    name, gens, coeffs = lr3._CONE_TABLE[0]
    assert name == "kappa1"
    assert lr3._CONE_TABLE[-1][0] == "kappa18"
    twin = dict(coeffs)
    twin[6] += 1
    lr3.load_k3.cache_clear()
    monkeypatch.setattr(
        lr3, "_CONE_TABLE", lr3._CONE_TABLE[:-1] + [("kappa1_twin", gens, twin)]
    )
    try:
        cones, _ = lr3.load_k3()
        kappa1 = next(c for c in cones if c.name == "kappa1")
        report = lr3.verify_cone(kappa1, samples=4, seed=3)
        assert not report.passed
        assert len(report.counterexamples) == 4
        # kappa1's own polynomial is right, so only the twin disagrees
        for _, value, count in report.counterexamples:
            assert value == count
    finally:
        lr3.load_k3.cache_clear()


def test_swap_involution_on_rays():
    for name, image in lr3.RAY_SWAP.items():
        assert lr3.RAY_SWAP[image] == name
        assert lr3.swap_lambda_mu(lr3.RAYS[name]) == lr3.RAYS[image]


def test_swap_involution_on_cones(complex_data):
    cones, _ = complex_data
    for cone in cones:
        image = lr3.cone_swap_image(cone, cones)
        assert lr3.swap_polynomial(cone.polynomial) == image.polynomial
        assert lr3.cone_swap_image(image, cones).name == cone.name


def test_rederive_corrected_rows_by_interpolation(complex_data):
    # kappa13/kappa14 as embedded (nu1 form) are what the counts force;
    # interpolate from hive counts in the free coordinates and compare.
    cones, _ = complex_data

    def free(p):
        return p[0:3] + p[3:5] + p[6:9]

    def reduce_affine(poly):
        const = poly.coefficient((0,) * 9)
        co = [
            poly.coefficient(tuple(1 if t == i else 0 for t in range(9)))
            for i in range(9)
        ]
        m3 = co[5]
        reduced = [co[0] - m3, co[1] - m3, co[2] - m3, co[3] - m3,
                   co[4] - m3, co[6] + m3, co[7] + m3, co[8] + m3]
        return MultiPolyQ.linear(8, const, dict(enumerate(reduced)))

    for name in ("kappa13", "kappa14"):
        cone = next(c for c in cones if c.name == name)
        pts = lr3.interior_points(cone, 40, seed=99)
        samples = [
            (free(p), hive_count(p[0:3], p[3:6], p[6:9], 3)) for p in pts
        ]
        fitted = fit_poly(samples, 8, 1)
        assert fitted == reduce_affine(cone.polynomial)


def test_export_json_roundtrip():
    payload = json.loads(lr3.export_json())
    assert set(payload) == {"rays", "variables", "cones"}
    assert len(payload["cones"]) == 18
    assert payload["variables"] == list(lr3.VAR_NAMES)
    assert payload["rays"]["b"] == [2, 1, 0, 2, 1, 0, 3, 2, 1]
    kappa2 = next(c for c in payload["cones"] if c["name"] == "kappa2")
    assert kappa2["polynomial"] == {"1": "1", "ν2": "1", "ν3": "-1"}


def _generator_matrix(cone) -> MatrixQ:
    """The 9 x 8 matrix whose columns are the cone's generators."""
    return MatrixQ.from_rows(
        [[lr3.RAYS[g][r] for g in cone.generators] for r in range(9)]
    )


def test_facet_rows_invert_every_generator_block(complex_data):
    cones, _ = complex_data
    scales = set()
    for cone in cones:
        rows = lr3._facet_rows(cone.generators)
        gens = [lr3.RAYS[g][:8] for g in cone.generators]
        product = [[sum(map(mul, row, g)) for g in gens] for row in rows]
        d = product[0][0]
        assert d > 0, cone.name
        assert product == [
            [d if i == j else 0 for j in range(8)] for i in range(8)
        ], cone.name
        scales.add(d)
    assert scales == {1}  # every cone is unimodular


def test_facet_rows_reject_a_rank_deficient_block():
    with pytest.raises(RuntimeError, match="rank"):
        lr3._facet_rows(("a1", "a1", "b", "c", "d1", "d2", "e1", "e2"))


def test_membership_matches_the_caratheodory_oracle(complex_data):
    cones, rays = complex_data
    points = set(rays.values())
    points |= {
        tuple(map(add, u, v))
        for u, v in itertools.combinations(rays.values(), 2)
    }
    # one seeded positive combination per cone, after the generator sum
    points |= {
        lr3.interior_points(c, 2, seed=i)[1] for i, c in enumerate(cones)
    }
    matrices = [_generator_matrix(cone) for cone in cones]
    checked = 0
    for p in sorted(points):
        valid = lr3.satisfies_validity_cones(p)
        for cone, matrix in zip(cones, matrices):
            expected = valid and (
                solve_nonneg_combination(matrix, p) is not None
            )
            assert lr3.membership(p, cone) == expected, (p, cone.name)
            checked += expected
    assert 0 < checked < len(points) * len(cones)


def test_membership_is_exact_on_fraction_points(complex_data):
    # a simplicial cone holds a combination of its generators exactly
    # when every coefficient is >= 0, so -1/7 on one generator is outside
    cones, _ = complex_data
    for cone in cones:
        gens = [lr3.RAYS[g] for g in cone.generators]
        for slack in (Fraction(1, 7), Fraction(-1, 7)):
            for j in range(8):
                coeffs = [Fraction(1)] * 8
                coeffs[j] = slack
                point = tuple(
                    sum(c * g[r] for c, g in zip(coeffs, gens))
                    for r in range(9)
                )
                assert lr3.membership(point, cone) == (slack > 0), (
                    cone.name, j, slack)


def test_locate_matches_membership_cone_by_cone(complex_data):
    cones, rays = complex_data
    ray_list = list(rays.values())
    points = ray_list + [
        tuple(map(add, p, q)) for p, q in itertools.combinations(ray_list, 2)
    ]
    assert len(points) == 11 + 55
    for cone in cones:
        gens = [lr3.RAYS[g] for g in cone.generators]
        for slack in (Fraction(1, 7), Fraction(-1, 7)):
            for j in range(8):
                coeffs = [Fraction(1)] * 8
                coeffs[j] = slack
                points.append(tuple(
                    sum(c * g[r] for c, g in zip(coeffs, gens))
                    for r in range(9)
                ))
    points += [(4, 0, 0, 0, 0, 0, 3, 1, 0), (0,) * 9]
    for p in points:
        expected = [c.name for c in cones if lr3.membership(p, c)]
        assert lr3.locate(p) == expected, p
    off_sum = (1, 0, 0, 0, 0, 0, 2, 0, 0)
    with pytest.raises(ValueError):
        lr3.locate(off_sum)
    with pytest.raises(ValueError):
        lr3.membership(off_sum, cones[0])


def test_locate_gives_hive_count_on_every_small_triple(complex_data):
    cones, _ = complex_data
    by_name = {c.name: c for c in cones}
    small = partitions_up_to(3, 4)
    by_size = {}
    for nu in partitions_up_to(3, 8):
        by_size.setdefault(sum(nu), []).append(nu)
    triples = [
        (lam, mu, nu)
        for lam in small
        for mu in small
        for nu in by_size.get(sum(lam) + sum(mu), [])
    ]
    assert len(triples) == 12411
    for lam, mu, nu in triples:
        point = sum((pad_partition(p, 3) for p in (lam, mu, nu)), ())
        names = lr3.locate(point)
        expected = by_name[names[0]].polynomial.evaluate(point) if names else 0
        assert expected == hive_count(lam, mu, nu, 3), (lam, mu, nu, names)


# The Caratheodory oracle itself, against axes and a brute-force search.

def test_solve_nonneg_axes():
    cols = MatrixQ.from_rows([[1, 0], [0, 1]])
    assert solve_nonneg_combination(cols, [2, 3]) == (2, 3)
    assert solve_nonneg_combination(cols, [-1, 0]) is None


def test_solve_nonneg_needs_positive_coefficients():
    # (1,1) is in the span but not the cone of (1,0) and (-1,1)... except
    # via x = (2,1); the strict outside case is (0,-1)
    cols = MatrixQ.from_rows([[1, -1], [0, 1]])
    sol = solve_nonneg_combination(cols, [1, 1])
    assert sol == (2, 1)
    assert solve_nonneg_combination(cols, [0, -1]) is None


def _brute_force_in_cone(columns: MatrixQ, target) -> bool:
    """Reference: try every column subset, any size."""
    n = columns.cols
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            sub = columns.submatrix_cols(subset)
            try:
                sol = solve_exact(sub, target) if subset else None
            except UnderdeterminedSystemError:
                continue
            if subset and sol is not None and all(x >= 0 for x in sol):
                return True
    return all(Fraction(t) == 0 for t in target)


def test_solve_nonneg_matches_brute_force_on_k3_rays():
    names = sorted(lr3.RAYS)
    cols = MatrixQ.from_rows(
        [[lr3.RAYS[n][r] for n in names] for r in range(9)]
    )
    b = lr3.RAYS["b"]
    sol = solve_nonneg_combination(cols, b)
    assert sol is not None
    assert [sum(map(mul, cols.row(r), sol)) for r in range(9)] == list(b)
    assert min(sol) >= 0
    assert _brute_force_in_cone(cols, b)
    # and a point clearly outside: negative lambda_1
    outside = (-1, 0, 0, 0, 0, 0, -1, 0, 0)
    assert solve_nonneg_combination(cols, outside) is None
    assert not _brute_force_in_cone(cols, outside)
