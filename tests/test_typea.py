import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangement_oracle import (
    act,
    bar,
    build,
    conjugates_of_fundamental_weights,
    dot,
)
from lrpoly import typea


def test_build_k3_delta_and_omega1():
    data = build(3)
    assert data.delta == (1, 0, -1)
    assert data.fundamental_weights[0] == (
        Fraction(2, 3),
        Fraction(-1, 3),
        Fraction(-1, 3),
    )


def test_build_k2_positive_roots():
    data = build(2)
    assert data.positive_roots == ((1, -1),)


def test_build_rejects_small_k():
    with pytest.raises(ValueError):
        build(1)


@pytest.mark.parametrize("k", range(2, 7))
def test_pairing_is_kronecker(k):
    data = build(k)
    for i, alpha in enumerate(data.simple_roots):
        for j, omega in enumerate(data.fundamental_weights):
            assert dot(alpha, omega) == (1 if i == j else 0)


@pytest.mark.parametrize("k", range(2, 7))
def test_delta_is_sum_of_fundamental_weights(k):
    data = build(k)
    assert tuple(map(sum, zip(*data.fundamental_weights))) == data.delta
    half_sum = tuple(sum(c) / 2 for c in zip(*data.positive_roots))
    assert half_sum == data.delta
    for root in data.positive_roots:
        assert sum(root) == 0


def test_bar_examples():
    assert bar((2, 1, 0), 3) == (1, 0, -1)
    assert bar((0, 0), 2) == (0, 0)
    assert bar((3, 3, 3), 3) == (0, 0, 0)
    with pytest.raises(ValueError):
        bar((1, 1, 1), 2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=0, max_size=5))
def test_bar_sums_to_zero(parts):
    parts = tuple(sorted(parts, reverse=True))
    k = max(len(parts), 2)
    assert sum(bar(parts, k)) == 0


def test_act_examples():
    w = (1, 0, -1)
    assert act((1, 2, 3), w) == w
    assert act((2, 1, 3), w) == (0, 1, -1)
    assert sorted(act((3, 1, 2), w)) == sorted(w)


@settings(max_examples=50, deadline=None)
@given(st.permutations(range(1, 5)), st.permutations(range(1, 5)),
       st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_act_composition(p, q, w):
    p, q, w = tuple(p), tuple(q), tuple(w)
    lhs = act(p, act(q, w))
    p_after_q = tuple(p[q[i] - 1] for i in range(len(p)))
    rhs = act(p_after_q, w)
    assert lhs == rhs


def test_inversions():
    assert typea.inversions((1, 2, 3)) == 0
    assert typea.inversions((3, 2, 1)) == 3
    assert typea.inversions((2, 1, 3)) == 1


def test_conjugates_k2():
    conj = conjugates_of_fundamental_weights(2)
    assert set(conj) == {
        (Fraction(1, 2), Fraction(-1, 2)),
        (Fraction(-1, 2), Fraction(1, 2)),
    }


def test_conjugates_k3_two_orbits_of_three():
    conj = conjugates_of_fundamental_weights(3)
    assert len(conj) == 6
    for w in conj:
        assert sum(w) == 0


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_wall_table_is_k_times_the_fundamental_weight_orbits(k):
    data = build(k)
    orbit = {
        tuple(k * x for x in act(p, omega))
        for omega in data.fundamental_weights
        for p in typea.all_permutations(k)
    }
    assert typea.wall_table(k) == tuple(sorted(orbit))
    assert len(orbit) == 2**k - 2


def test_partition_text_roundtrip():
    assert typea.parse_partition("2,1,0") == (2, 1, 0)
    assert typea.parse_partition("") == ()
    assert typea.format_partition((3, 1)) == "3,1"
    with pytest.raises(ValueError):
        typea.parse_partition("1,2")
    with pytest.raises(ValueError):
        typea.parse_partition("a,b")


def test_partitions_equal_modulo_trailing_zeros():
    assert typea.normalize_partition((3, 1, 0, 0)) == (3, 1)
    assert typea.normalize_partition(()) == ()
    assert typea.pad_partition((2, 1), 4) == (2, 1, 0, 0)
    with pytest.raises(ValueError):
        typea.pad_partition((2, 1, 1), 2)


def test_infer_k_is_longest_length_at_least_two():
    assert typea.infer_k((), (), ()) == 2
    assert typea.infer_k((5,), (3, 0, 0), (8,)) == 2
    assert typea.infer_k((2, 1), (1, 1, 1, 0), (3, 2, 1, 1)) == 4


@pytest.mark.parametrize("parts", [(1.5,), (2, 0.5), ("3",)])
def test_a_non_integral_part_raises(parts):
    with pytest.raises(ValueError, match="non-integral"):
        typea.validate_partition(parts)


def test_integral_values_become_ints():
    assert typea.validate_partition([3.0, 1]) == (3, 1)
    assert type(typea.validate_partition((3.0,))[0]) is int


def test_is_partition():
    for parts in [(), (0,), (3, 3, 1, 0), [2, 1]]:
        assert typea.is_partition(parts)
    for parts in [(1, 2), (2, -1), (-1,), (1, 0, 1)]:
        assert not typea.is_partition(parts)


def test_padded_triple_validates_infers_and_pads():
    assert typea.padded_triple((2, 1), (1,), (3, 1, 0, 0)) == (
        (2, 1), (1, 0), (3, 1), 2
    )
    assert typea.padded_triple((2, 1), (), (3,), 4) == (
        (2, 1, 0, 0), (0, 0, 0, 0), (3, 0, 0, 0), 4
    )
    # an explicit k is kept as given, even below 2
    assert typea.padded_triple((3,), (), (3,), 1) == ((3,), (0,), (3,), 1)
    with pytest.raises(ValueError, match="more than 2 parts"):
        typea.padded_triple((1, 1, 1), (), (1, 1, 1), 2)
    with pytest.raises(ValueError):
        typea.padded_triple((1, 2), (1,), (2, 2))
    with pytest.raises(ValueError, match="non-integral"):
        typea.padded_triple((1.5,), (1,), (2.5,))


def test_simple_root_coordinate_conversion():
    # (1, 0, -1) = alpha_1 + alpha_2
    assert typea.to_simple_root_coords((1, 0, -1)) == (1, 1)
    with pytest.raises(ValueError):
        typea.to_simple_root_coords((1, 0, 0))
    for k in (2, 3, 4):
        for p in itertools.permutations(range(1, k + 1)):
            w = bar(tuple(sorted(p, reverse=True)), k)
            b = typea.to_simple_root_coords(w)
            assert len(b) == k - 1
