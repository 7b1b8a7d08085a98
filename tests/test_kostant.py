import itertools
from fractions import Fraction

import pytest

from arrangement_oracle import build, conjugates_of_fundamental_weights, dot
from lrpoly.exactla import MatrixQ
from lrpoly.kostant import (
    build_root_matrix,
    check_unimodular,
    kostant_chambers,
    kostant_count,
    region_containing,
    vector_partition_count,
    wall_hyperplanes,
    wall_normals,
    _count_from,
    _from_simple_roots,
    _primitive,
)


def test_count_zero_vector():
    assert kostant_count(3, (0, 0, 0)) == 1
    assert kostant_count(2, (0, 0)) == 1


def test_count_alpha1_plus_alpha2():
    # (1,0,-1) = alpha_1 + alpha_2 = (e1-e2) + (e2-e3) = e1-e3
    assert kostant_count(3, (1, 0, -1)) == 2


def test_count_outside_cone():
    assert kostant_count(3, (-1, 1, 0)) == 0
    assert kostant_count(2, (-1, 1)) == 0
    assert _count_from((-1,)) == 0
    assert _count_from((2, -1, 3)) == 0


def test_count_non_integral_is_zero():
    assert kostant_count(3, ("1/2", "-1/2", 0)) == 0


def test_count_rejects_nonzero_sum():
    with pytest.raises(ValueError):
        kostant_count(3, (1, 0, 0))


def test_count_a2_is_min_plus_one():
    # direct enumeration oracle: K(b1 a1 + b2 a2) = min(b1, b2) + 1
    for b1 in range(7):
        for b2 in range(7):
            v = _from_simple_roots((b1, b2))
            assert kostant_count(3, v) == min(b1, b2) + 1


def test_root_matrix_a2():
    rm = build_root_matrix(2)
    cols = {rm.matrix.col(j) for j in range(rm.matrix.cols)}
    assert cols == {(1, 0), (0, 1), (1, 1)}


def test_root_matrix_a3_has_six_columns():
    rm = build_root_matrix(3)
    assert rm.matrix.cols == 6
    assert rm.matrix.rows == 3
    # every column is a consecutive block of ones
    for j in range(6):
        col = [int(x) for x in rm.matrix.col(j)]
        ones = [i for i, x in enumerate(col) if x == 1]
        assert col.count(1) == len(ones)
        assert ones == list(range(ones[0], ones[-1] + 1))


def test_a2_maximal_minors_are_unimodular():
    from lrpoly.exactla import det

    m = build_root_matrix(2).matrix
    for cols in itertools.combinations(range(3), 2):
        assert det(m.submatrix_cols(cols)) in (-1, 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_root_matrices_unimodular(n):
    ok, witness = check_unimodular(build_root_matrix(n).matrix)
    assert ok and witness is None


def test_unimodular_counterexample():
    ok, witness = check_unimodular(MatrixQ.from_rows([[1, 0], [0, 2]]))
    assert not ok
    assert witness == (0, 1)


def test_unimodular_rejects_rank_deficient():
    with pytest.raises(ValueError):
        check_unimodular(MatrixQ.from_rows([[1, 1], [1, 1]]))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_count_agrees_with_vector_partition_function(k):
    # cross-check in simple-root coordinates against the generic phi_M
    m = build_root_matrix(k - 1).matrix
    box = 3 if k == 6 else 5
    for b in itertools.product(range(box), repeat=k - 1):
        v = _from_simple_roots(b)
        assert kostant_count(k, v) == vector_partition_count(m, b)


def test_vector_partition_rejects_bad_matrix():
    with pytest.raises(ValueError):
        vector_partition_count(MatrixQ.from_rows([[1, -1]]), [0])
    with pytest.raises(ValueError):
        vector_partition_count(MatrixQ.from_rows([[1, 0]]), [0])


@pytest.mark.parametrize("rows, b", [
    ([[Fraction(3, 2), 1]], [2]),  # one solution, x = (0, 2)
    ([[Fraction(1, 2)]], [1]),     # int(1/2) = 0 would divide by zero
])
def test_vector_partition_rejects_non_integral_entries(rows, b):
    # entries are read as ints, never truncated
    with pytest.raises(ValueError, match="non-integral"):
        vector_partition_count(MatrixQ.from_rows(rows), b)


def test_chambers_a1():
    chambers = kostant_chambers(1)
    assert len(chambers) == 1
    assert chambers[0].polynomial.format(["v1"]) == "1"


def test_chambers_a2_two_regions():
    chambers = kostant_chambers(2)
    assert len(chambers) == 2
    found = {}
    for ch in chambers:
        found[frozenset(ch.generators)] = ch.polynomial
    lower = found[frozenset({(1, 0), (1, 1)})]  # v1 >= v2 >= 0
    upper = found[frozenset({(0, 1), (1, 1)})]  # v2 >= v1 >= 0
    assert lower.format(["v1", "v2"]) == "1+v2"
    assert upper.format(["v1", "v2"]) == "1+v1"


def test_chambers_a3_degree_bound():
    for ch in kostant_chambers(3):
        assert ch.polynomial.total_degree() <= 3


def test_chambers_are_built_once_and_immutable():
    assert isinstance(kostant_chambers(2), tuple)
    assert kostant_chambers(2) is kostant_chambers(2)


def test_chambers_rejects_large_n():
    with pytest.raises(ValueError, match=r"needs 1 <= n <= 3"):
        kostant_chambers(4)


def test_chambers_rejects_n_zero():
    with pytest.raises(ValueError, match=r"needs 1 <= n <= 3"):
        kostant_chambers(0)


@pytest.mark.parametrize("n", [2, 3])
def test_region_polynomials_match_count_on_interior_points(n):
    chambers = kostant_chambers(n)
    walls = wall_hyperplanes(n)
    for b in itertools.product(range(7), repeat=n):
        ch = region_containing(chambers, walls, b)
        if ch is None:
            continue
        v = _from_simple_roots(b)
        assert ch.polynomial.evaluate(b) == kostant_count(n + 1, v)


@pytest.mark.parametrize("n", [2, 3])
def test_adjacent_regions_agree_on_shared_facets(n):
    from lrpoly.exactla import rank

    chambers = kostant_chambers(n)
    for c1, c2 in itertools.combinations(chambers, 2):
        common = sorted(set(c1.generators) & set(c2.generators))
        if not common:
            continue
        if rank(MatrixQ.from_rows(common)) != n - 1:
            continue
        for coeffs in itertools.product(range(3), repeat=len(common)):
            pt = tuple(
                sum(c * r[t] for c, r in zip(coeffs, common))
                for t in range(n)
            )
            assert c1.polynomial.evaluate(pt) == c2.polynomial.evaluate(pt)


def test_wall_normals_delegate_to_conjugates():
    normals = wall_normals(2)
    conj = conjugates_of_fundamental_weights(3)
    assert len(normals) == len(set(normals))
    data = build(3)
    expected = {
        tuple(dot(alpha, w) for alpha in data.simple_roots)
        for w in conj
    }
    assert set(normals) == expected


def test_wall_normals_come_in_opposite_pairs():
    for n in (1, 2, 3):
        normals = set(wall_normals(n))
        for w in normals:
            assert tuple(-x for x in w) in normals


@pytest.mark.parametrize("n", [2, 3])
def test_base_cone_facet_normals_are_wall_normals(n):
    from lrpoly.exactla import null_space, rank

    m = build_root_matrix(n).matrix
    walls = set(wall_hyperplanes(n))
    for cols in itertools.combinations(range(m.cols), n):
        sub = m.submatrix_cols(cols)
        if rank(sub) < n:
            continue
        col_vecs = [sub.col(j) for j in range(n)]
        for drop in range(n):
            rest = [col_vecs[j] for j in range(n) if j != drop]
            kernel = null_space(MatrixQ.from_rows(rest))
            assert len(kernel) == 1
            assert _primitive(kernel[0]) in walls
