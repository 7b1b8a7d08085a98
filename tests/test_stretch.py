import json
import random
from fractions import Fraction

import pytest

from elimination_oracle import solve_exact
from lrpoly import lr3, stretch
from lrpoly.exactla import MatrixQ, rank
from lrpoly.hive import hive_count
from lrpoly.steinberg import free_coordinates, is_generic
from lrpoly.stretch import (
    KttReport,
    PolynomialityError,
    check_ktt,
    check_linear_k3,
    stretch_poly,
)


def test_stretch_linear_example():
    r = stretch_poly((2, 1), (2, 1), (3, 2, 1))
    assert r.polynomial.coefficients == (1, 1)  # N + 1
    assert r.value_at_0 == 1
    assert r.coefficients_nonnegative
    assert r.degree_bound == 3
    assert [n for n, _, _ in r.verification_points] == [5, 6, 7]
    for _, expected, got in r.verification_points:
        assert expected == got


def test_stretch_constant_for_forced_triple():
    r = stretch_poly((4, 2), (), (4, 2))
    assert r.polynomial.coefficients == (1,)


def test_stretch_zero_polynomial():
    # c = 0 and stays 0 under stretching (saturation)
    r = stretch_poly((2,), (2,), (2, 1, 1))
    assert r.polynomial.is_zero()
    assert r.value_at_0 == 0


def test_stretch_raises_when_a_recount_misses_the_fit(monkeypatch):
    # k = 3 fits N = 1..4; corrupt the middle held-out recount, N = 6
    count_by = stretch.count_by

    def corrupted(method, lam, mu, nu, k=None):
        return count_by(method, lam, mu, nu, k) + (lam == (12, 6))

    monkeypatch.setattr(stretch, "count_by", corrupted)
    with pytest.raises(PolynomialityError, match=r"at N=6: .* gives 7, "):
        stretch_poly((2, 1), (2, 1), (3, 2, 1))


def test_stretch_rejects_sum_mismatch():
    with pytest.raises(ValueError):
        stretch_poly((1,), (1,), (3,))


def test_stretch_rejects_a_non_integral_part():
    with pytest.raises(ValueError, match="non-integral"):
        stretch_poly((1.5,), (1,), (2.5,))


def test_stretch_methods_agree():
    reference = stretch_poly((2, 1), (1, 1), (2, 2, 1), "hive")
    for method in ("steinberg", "tableaux", "system"):
        r = stretch_poly((2, 1), (1, 1), (2, 2, 1), method)
        assert r.polynomial == reference.polynomial


def test_stretch_json_uses_exact_strings():
    r = stretch_poly((2, 1), (2, 1), (3, 2, 1))
    payload = r.to_json_dict()
    assert payload["polynomial"] == "N+1"
    assert payload["p0"] == "1"
    assert payload["coefficients"] == ["1", "1"]
    json.dumps(payload)  # serializable


def test_linear_identity_examples():
    assert check_linear_k3((2, 1), (2, 1), (3, 2, 1))
    assert check_linear_k3((1,), (1,), (2,))
    assert check_linear_k3((1,), (1,), (1, 1))


def test_linear_identity_rejects_large_k():
    with pytest.raises(ValueError):
        check_linear_k3((3, 2, 1, 1), (1,), (4, 2, 1, 1))


def test_linear_identity_rejects_zero_coefficient():
    with pytest.raises(ValueError):
        check_linear_k3((2,), (2,), (2, 1, 1))


def test_ktt_report_positive_case():
    report = check_ktt((2, 1), (2, 1), (3, 2, 1))
    assert isinstance(report, KttReport)
    assert report.p0_is_one
    assert report.coefficients_nonnegative
    parsed = json.loads(report.to_json())
    assert parsed["p0_is_one"] is True


def test_ktt_identity_triple():
    report = check_ktt((3, 1), (), (3, 1))
    assert report.p0_is_one and report.coefficients_nonnegative


def test_ktt_rejects_zero():
    with pytest.raises(ValueError):
        check_ktt((2,), (2,), (2, 1, 1))


def test_degree_never_exceeds_bound_k4_samples():
    cases = [
        ((3, 2, 1), (3, 2, 1), (4, 4, 2, 2)),
        ((5, 3, 2), (5, 3, 2), (6, 5, 5, 4)),
        ((2, 1, 1), (2, 1), (3, 2, 1, 1)),
    ]
    for lam, mu, nu in cases:
        r = stretch_poly(lam, mu, nu)
        assert r.polynomial.degree() <= r.degree_bound == 9


def test_cubic_with_rational_coefficients():
    # hive counts at N = 1..5 are 5, 14, 30, 55, 91, i.e. the cubic
    # (N+1)(N+2)(2N+3)/6; frozen from exact interpolation
    r = stretch_poly((4, 2, 1), (4, 3, 2), (6, 5, 3, 2))
    assert [c for _, c in r.samples[:5]] == [5, 14, 30, 55, 91]
    assert r.polynomial.coefficients == (
        1, Fraction(13, 6), Fraction(3, 2), Fraction(1, 3),
    )
    assert r.value_at_0 == 1
    assert r.coefficients_nonnegative


# --- joint stability of the stretching polynomial under nu perturbations

_NU_PERTURBATIONS = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0))


def _perturbed_triple(seed, dnu):
    lam, mu, nu = seed
    nu2 = tuple(a + b for a, b in zip(nu, dnu))
    extra = sum(dnu)
    mu2 = mu[:2] + (mu[2] + extra,)
    return lam, mu2, nu2


def _joint_polynomial_fits(samples, holdouts, nfree, tdeg, xdeg):
    """Is there one polynomial, degree <= tdeg in t and <= xdeg in the
    coordinates, reproducing every sample?  Fit on a greedily chosen
    independent column set, demand global consistency, then check the
    held-out rows too."""
    assert xdeg == 1
    basis = [(p, None) for p in range(tdeg + 1)]
    basis += [(p, i) for p in range(tdeg + 1) for i in range(nfree)]

    def row(x, t):
        return [
            Fraction(t) ** p * (Fraction(1) if i is None else Fraction(x[i]))
            for p, i in basis
        ]

    rows = [row(x, t) for (x, t), _ in samples]
    values = [v for _, v in samples]
    chosen = []
    full = MatrixQ.from_rows(rows)
    for c in range(len(basis)):
        trial = chosen + [c]
        if rank(full.submatrix_cols(trial)) == len(trial):
            chosen = trial
    sol = solve_exact(full.submatrix_cols(chosen), values)
    if sol is None:
        return False

    def evaluate(x, t):
        r = row(x, t)
        return sum(r[c] * s for c, s in zip(chosen, sol))

    return all(evaluate(x, t) == v for (x, t), v in holdouts)


def test_stable_stretching_joint_fit():
    rng = random.Random(23)
    cones, _ = lr3.load_k3()
    cone = next(c for c in cones if c.name == "kappa4")
    gens = [lr3.RAYS[g] for g in cone.generators]
    seed = None
    while seed is None:
        coeffs = [rng.randint(3, 9) for _ in gens]
        p = tuple(sum(c * g[r] for c, g in zip(coeffs, gens)) for r in range(9))
        lam, mu, nu = lr3.split_point(p)
        if not is_generic(lam, mu, nu, 3):
            continue
        home = lr3.locate(p)
        if len(home) != 1:
            continue
        triples = [(lam, mu, nu)]
        for dnu in _NU_PERTURBATIONS:
            cand = _perturbed_triple((lam, mu, nu), dnu)
            moved = (
                cand[0] + cand[1] + cand[2]
            )
            if lr3.locate(moved) != home:
                break
            triples.append(cand)
        else:
            seed = triples
    samples = []
    holdouts = []
    for lam, mu, nu in seed:
        x = free_coordinates(lam, mu, nu, 3)
        for t in range(1, 5):
            c = hive_count(
                tuple(t * v for v in lam),
                tuple(t * v for v in mu),
                tuple(t * v for v in nu),
                3,
            )
            samples.append(((x, t), c))
        c5 = hive_count(
            tuple(5 * v for v in lam),
            tuple(5 * v for v in mu),
            tuple(5 * v for v in nu),
            3,
        )
        holdouts.append(((x, 5), c5))
    assert _joint_polynomial_fits(samples, holdouts, nfree=8, tdeg=3, xdeg=1)
