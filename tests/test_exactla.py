import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import elimination_oracle as oracle
from lrpoly.exactla import (
    MatrixQ,
    MultiPolyQ,
    UnderdeterminedSystemError,
    UniPolyQ,
    det,
    fit_poly,
    independent_rows,
    int_rref,
    monomial_row,
    monomials_up_to_degree,
    null_space,
    rank,
    rref,
)


def test_rref_identity():
    m = MatrixQ.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
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


# entries p/q with q <= 3, so rows need their denominators cleared
fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def matrices(draw, square=False):
    """0-7 rows and 0-7 columns, some rows then zeroed or duplicated."""
    nrows = draw(st.integers(0, 7))
    ncols = nrows if square else draw(st.integers(0, 7))
    row = st.lists(fractions, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i = draw(st.integers(0, nrows - 1))
        j = draw(st.integers(0, nrows - 1))
        rows[i] = [Fraction(0)] * ncols if draw(st.booleans()) else rows[j]
    return MatrixQ(nrows, ncols, tuple(x for r in rows for x in r))


def _solve_outcome(solve, *args):
    try:
        return solve(*args)
    except UnderdeterminedSystemError:
        return "underdetermined"


def _solve_by_int_rref(m, b):
    """The solve fit_poly makes: int_rref of [m | b], read as m x = b."""
    rows, d, pivots = int_rref(r + [x] for r, x in zip(m.row_lists(), b))
    if m.cols in pivots:
        return None
    if len(pivots) < m.cols:
        raise UnderdeterminedSystemError("solution not unique")
    return tuple(Fraction(row[m.cols], d) for row in rows[: m.cols])


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_elimination_matches_the_fraction_oracle(m, data):
    rows, d, pivots = int_rref(m.row_lists())
    assert all(type(x) is int for r in rows for x in r)
    assert d != 0
    assert rref(m) == oracle.rref(m)
    assert rank(m) == oracle.rref(m)[1] == len(pivots)
    assert null_space(m) == oracle.null_space(m)
    assert independent_rows(m.row_lists()) == (
        oracle.independent_rows(m.row_lists())
    )
    b = data.draw(st.lists(fractions, min_size=m.rows, max_size=m.rows))
    assert _solve_outcome(_solve_by_int_rref, m, b) == (
        _solve_outcome(oracle.solve_exact, m, b)
    )


@settings(max_examples=300, deadline=None)
@given(matrices(square=True))
def test_det_matches_the_fraction_oracle(m):
    assert det(m) == oracle.det(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.permutations(range(n)),
        st.lists(fractions.filter(bool), min_size=n, max_size=n),
        st.lists(fractions, min_size=n * n, max_size=n * n),
    )
))
def test_det_sign_survives_row_swaps(case):
    # rows of an upper-triangular matrix, shuffled by the permutation
    perm, diagonal, fill = case
    n = len(perm)
    upper = [
        [diagonal[i] if i == j else fill[i * n + j] if j > i else 0
         for j in range(n)]
        for i in range(n)
    ]
    m = MatrixQ.from_rows([upper[p] for p in perm])
    inversions = sum(
        perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
    )
    expected = (-1) ** inversions * prod(diagonal)
    assert det(m) == oracle.det(m) == expected


def test_int_rref_is_the_scaled_rref():
    rows, d, pivots = int_rref([[0, 2, 4], [Fraction(1, 2), 1, 0]])
    assert pivots == (0, 1)
    assert rows == [[d, 0, -4 * d], [0, d, 2 * d]]
    assert int_rref([]) == ([], 1, ())
    assert int_rref([[0, 0], [0, 0]])[1:] == (1, ())


def test_monomial_row_stays_int_at_an_int_point():
    monos = monomials_up_to_degree(2, 3)
    assert all(type(v) is int for v in monomial_row((2, -3), monos))
    assert monomial_row((Fraction(1, 2), 1), [(2, 0)]) == [Fraction(1, 4)]


def _fit_univariate(points):
    """fit_poly through the points, degree one less than their number."""
    return fit_poly((((x,), y) for x, y in points), 1, len(points) - 1)


def test_interpolate_line():
    p = _fit_univariate([(1, 2), (2, 3)])
    assert p == MultiPolyQ.linear(1, 1, {0: 1})  # N + 1


def test_interpolate_constant():
    p = _fit_univariate([(0, 1), (1, 1), (2, 1)])
    assert p == MultiPolyQ.constant(1, 1)


def test_interpolate_quadratic():
    p = _fit_univariate([(1, 2), (2, 5), (3, 10)])
    assert p == MultiPolyQ.from_terms(1, {(2,): 1, (0,): 1})  # N^2 + 1
    for x, y in [(1, 2), (2, 5), (3, 10), (4, 17)]:
        assert p.evaluate((x,)) == y


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
    p = _fit_univariate(points)
    assert p.total_degree() < len(points)
    for x, y in points:
        assert p.evaluate((x,)) == y


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-30, 30), st.integers(-10**6, 10**6)),
        min_size=1,
        max_size=19,
        unique_by=lambda t: t[0],
    )
)
@example([(x, x**18 - 7 * x**9 + 1) for x in range(-9, 10)])
def test_univariate_fit_matches_the_lagrange_oracle(points):
    # up to 19 distinct abscissae: degree D <= 18, the k = 4 stretch bound
    # is 9, and the fit is the one polynomial through all of them
    lagrange = oracle.interpolate_univariate(points)
    fitted = _fit_univariate(points)
    assert fitted == MultiPolyQ.from_terms(
        1, {(p,): c for p, c in enumerate(lagrange.coefficients)}
    )


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


def test_fit_falls_back_to_every_sample_when_the_first_are_degenerate():
    # the first two samples repeat x = 0; the third pins down x + 1
    samples = [((0,), 1), ((0,), 1), ((1,), 2)]
    assert fit_poly(samples, 1, 1) == MultiPolyQ.linear(1, 1, {0: 1})
    assert fit_poly(samples + [((3,), 5)], 1, 1) is None


def _fit_by_oracle(samples, nvars, degree):
    monos = monomials_up_to_degree(nvars, degree)
    m = MatrixQ.from_rows([monomial_row(p, monos) for p, _ in samples])
    sol = _solve_outcome(oracle.solve_exact, m, [v for _, v in samples])
    if isinstance(sol, tuple):
        return MultiPolyQ.from_terms(nvars, dict(zip(monos, sol)))
    return sol


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2), st.integers(0, 2), st.data())
def test_fit_matches_the_fraction_oracle(nvars, degree, data):
    nmono = len(monomials_up_to_degree(nvars, degree))
    point = st.tuples(*[st.integers(-2, 2)] * nvars)
    points = data.draw(st.lists(point, min_size=nmono, max_size=nmono + 4))
    target = MultiPolyQ.from_terms(nvars, {
        e: data.draw(fractions) for e in monomials_up_to_degree(nvars, degree)
    })
    samples = [(p, target.evaluate(p)) for p in points]
    if data.draw(st.booleans()):  # perturb one value
        i = data.draw(st.integers(0, len(samples) - 1))
        samples[i] = (samples[i][0], samples[i][1] + 1)
    assert _solve_outcome(fit_poly, samples, nvars, degree) == (
        _fit_by_oracle(samples, nvars, degree)
    )


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
