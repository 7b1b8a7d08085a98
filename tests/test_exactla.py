import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpoly.exactla import (
    MatrixQ,
    MultiPolyQ,
    UnderdeterminedSystemError,
    UniPolyQ,
    det,
    fit_poly,
    independent_rows,
    interpolate_univariate,
    monomials_up_to_degree,
    null_space,
    rank,
    rref,
)


def test_rref_identity():
    m = MatrixQ.identity(3)
    red, rank, pivots = rref(m)
    assert red == m
    assert rank == 3
    assert pivots == (0, 1, 2)


def test_rref_zero_matrix():
    m = MatrixQ.from_rows([[0, 0, 0, 0], [0, 0, 0, 0]])
    red, rank, pivots = rref(m)
    assert red == m
    assert rank == 0
    assert pivots == ()


def test_rref_root_matrix_a2():
    m = MatrixQ.from_rows([[1, 0, 1], [0, 1, 1]])
    _, rank, _ = rref(m)
    assert rank == 2


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    )
)
def test_rref_idempotent(rows):
    m = MatrixQ.from_rows(rows)
    red, _, _ = rref(m)
    again, _, _ = rref(red)
    assert again == red


def test_det_and_null_space():
    assert det(MatrixQ.from_rows([[1, 2], [3, 4]])) == -2
    basis = null_space(MatrixQ.from_rows([[1, 1, 0]]))
    assert len(basis) == 2
    for v in basis:
        assert v[0] + v[1] == 0


def test_interpolate_line():
    p = interpolate_univariate([(1, 2), (2, 3)])
    assert p.coefficients == (1, 1)
    assert p.format("N") == "N+1"


def test_interpolate_constant():
    p = interpolate_univariate([(0, 1), (1, 1), (2, 1)])
    assert p.coefficients == (1,)


def test_interpolate_quadratic():
    p = interpolate_univariate([(1, 2), (2, 5), (3, 10)])
    assert p.coefficients == (1, 0, 1)  # N^2 + 1
    for x, y in [(1, 2), (2, 5), (3, 10), (4, 17)]:
        assert p.evaluate(x) == y


def test_interpolate_duplicate_abscissa():
    with pytest.raises(ValueError):
        interpolate_univariate([(1, 2), (1, 3)])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-8, 8), st.integers(-50, 50)),
        min_size=1,
        max_size=6,
        unique_by=lambda t: t[0],
    )
)
def test_interpolate_reproduces_points(points):
    p = interpolate_univariate(points)
    assert p.degree() < len(points)
    for x, y in points:
        assert p.evaluate(x) == y


def test_unipoly_format():
    assert UniPolyQ.from_coeffs([1, -1, 2]).format("N") == "2*N^2-N+1"
    assert UniPolyQ.from_coeffs([]).format("N") == "0"
    assert UniPolyQ.from_coeffs([Fraction(1, 2)]).format("N") == "1/2"


def test_monomial_order_graded_lex():
    monos = monomials_up_to_degree(2, 2)
    assert monos == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def _monomials_by_sorting(nvars, max_degree):
    # every exponent tuple in the box, filtered by degree and sorted
    out = []
    for d in range(max_degree + 1):
        level = [
            e
            for e in itertools.product(range(d + 1), repeat=nvars)
            if sum(e) == d
        ]
        level.sort(key=lambda e: tuple(-x for x in e))
        out.extend(level)
    return out


@pytest.mark.parametrize("nvars", range(6))
def test_monomials_match_the_sorted_enumeration(nvars):
    for degree in range(-1, 5):
        assert monomials_up_to_degree(nvars, degree) == (
            _monomials_by_sorting(nvars, degree)
        )


def _greedy_independent(rows):
    chosen = []
    for i, row in enumerate(rows):
        trial = [rows[j] for j in chosen] + [row]
        if rank(MatrixQ.from_rows(trial)) == len(trial):
            chosen.append(i)
    return tuple(chosen)


def test_independent_rows_match_greedy_rank():
    rng = random.Random(13)
    for _ in range(60):
        ncols = rng.randint(1, 5)
        rows = [
            [rng.randint(-2, 2) for _ in range(ncols)]
            for _ in range(rng.randint(1, 7))
        ]
        rows.insert(rng.randint(0, len(rows)), [0] * ncols)
        rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
        assert independent_rows(rows) == _greedy_independent(rows)


def test_independent_rows_edge_cases():
    assert independent_rows([]) == ()
    assert independent_rows([[0, 0], [1, 2], [2, 4], [0, 1]]) == (1, 3)


def test_fit_constant():
    samples = [((i, j), 7) for i in range(2) for j in range(2)]
    p = fit_poly(samples, 2, 0)
    assert p == MultiPolyQ.constant(2, 7)


def test_fit_recovers_affine_form_in_nine_variables():
    # value = 1 + nu_2 - nu_3 with coordinates (lam|mu|nu)
    target = MultiPolyQ.linear(9, 1, {7: 1, 8: -1})
    pts = []
    seed = 37
    for _ in range(20):
        seed = (seed * 1103515245 + 12345) % (2**31)
        pts.append(tuple((seed >> (3 * t)) % 9 for t in range(9)))
    samples = [(p, target.evaluate(p)) for p in pts]
    fitted = fit_poly(samples, 9, 1)
    assert fitted == target


def test_fit_detects_inconsistency():
    samples = [((x,), x * x) for x in range(5)]
    assert fit_poly(samples, 1, 1) is None


def test_fit_underdetermined_is_distinct_error():
    samples = [((0, 0), 1), ((0, 0), 1), ((0, 0), 1)]
    with pytest.raises(UnderdeterminedSystemError):
        fit_poly(samples, 2, 1)
    with pytest.raises(UnderdeterminedSystemError):
        fit_poly([((1, 1), 1)], 2, 1)  # too few samples outright


def test_multipoly_evaluate_and_arithmetic():
    p = MultiPolyQ.from_terms(2, {(2, 0): 1, (0, 1): -3, (0, 0): 5})
    assert p.evaluate((2, 1)) == 4 - 3 + 5
    q = p + p.scale(-1)
    assert q.is_zero()
    assert (p - p).is_zero()
    assert p.total_degree() == 2
