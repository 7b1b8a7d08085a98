"""The counting contract all four methods share through count_by.

Every method returns 0 when |lambda| + |mu| != |nu|, ignores trailing
zeros and any explicit k at least as large as the inferred one, and
raises ValueError for an explicit k below a partition's length or for
a part list that is not a partition.  The counters read a triple
through typea.padded_triple, so they keep the contract when called
directly too.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import partitions_up_to, triples_with_matching_sum
from lrpoly import stretch
from lrpoly.hive import build_system, count_via_system, hive_count
from lrpoly.steinberg import steinberg_count
from lrpoly.stretch import COUNTING_METHODS, check_ktt, count_by
from lrpoly.tableaux import lr_rule_count
from lrpoly.typea import infer_k

partitions = st.lists(st.integers(0, 4), max_size=3).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)
matching_triples = st.sampled_from(
    triples_with_matching_sum(partitions_up_to(3, 3))
)


def _counts(lam, mu, nu, k=None):
    return {m: count_by(m, lam, mu, nu, k) for m in COUNTING_METHODS}


@settings(max_examples=40, deadline=None)
@given(partitions, partitions, partitions)
def test_sum_mismatch_is_zero_for_every_method(lam, mu, nu):
    assume(sum(lam) + sum(mu) != sum(nu))
    assert set(_counts(lam, mu, nu).values()) == {0}


@settings(max_examples=25, deadline=None)
@given(
    matching_triples,
    st.tuples(*[st.integers(0, 2)] * 3),
    st.integers(0, 1),
)
def test_padding_changes_no_count(triple, zeros, extra_k):
    expected = _counts(*triple)
    assert len(set(expected.values())) == 1
    padded = tuple(p + (0,) * z for p, z in zip(triple, zeros))
    assert _counts(*padded) == expected
    assert _counts(*padded, infer_k(*triple) + extra_k) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 600), st.integers(0, 600), st.data())
def test_long_one_row_shapes_follow_pieri(a, b, data):
    # s_(a) s_(b) = sum over j <= min(a, b) of s_(a+b-j, j)
    j = data.draw(st.integers(0, (a + b) // 2))
    expected = 1 if j <= min(a, b) else 0
    nu = (a + b - j, j)
    assert _counts((a,), (b,), nu) == dict.fromkeys(COUNTING_METHODS, expected)


def test_deep_skew_shape_is_counted_by_every_method():
    # 1200 cells in nu/lam: deeper than the default recursion limit
    triple = ((), (600, 600), (600, 600))
    assert _counts(*triple) == dict.fromkeys(COUNTING_METHODS, 1)


@pytest.mark.parametrize("method", COUNTING_METHODS)
def test_k_below_a_length_raises(method):
    with pytest.raises(ValueError, match="more than 2 parts"):
        count_by(method, (2, 1, 1), (1,), (3, 1, 1), 2)
    with pytest.raises(ValueError, match="k must be >= 2"):
        count_by(method, (1,), (1,), (2,), 1)


@pytest.mark.parametrize("method", COUNTING_METHODS)
@pytest.mark.parametrize("triple", [
    ((2, -1), (1,), (2,)),    # a negative part, sums matching
    ((1, 2), (1,), (2, 2)),   # increasing parts, sums matching
    ((1.5,), (1,), (2.5,)),   # a non-integral part, sums matching
])
def test_a_non_partition_raises(method, triple):
    with pytest.raises(ValueError):
        count_by(method, *triple)


@pytest.mark.parametrize("method", COUNTING_METHODS)
def test_larger_explicit_k_gives_the_same_count(method):
    triple = ((2, 1), (2, 1), (3, 2, 1))
    assert count_by(method, *triple, 3) == count_by(method, *triple, 6) == 2


def test_explicit_k_is_checked_then_counted_at_inferred_k(monkeypatch):
    seen = []

    def spy(lam, mu, nu, k):
        seen.append((lam, k))
        return 0

    monkeypatch.setattr(stretch, "hive_count", spy)
    count_by("hive", (2, 1), (2, 1), (3, 2, 1), 6)
    assert seen == [((2, 1, 0), 3)]


def test_ktt_sum_mismatch_message_is_method_independent():
    messages = set()
    for method in COUNTING_METHODS:
        with pytest.raises(ValueError) as exc:
            check_ktt((1,), (1,), (3,), method)
        messages.add(str(exc.value))
    assert messages == {"conjecture report requires a positive coefficient"}


def _direct_counts(lam, mu, nu, k):
    return {
        "hive": hive_count(lam, mu, nu, k),
        "steinberg": steinberg_count(lam, mu, nu, k),
        "system": count_via_system(build_system(k), lam, mu, nu),
        "tableaux": lr_rule_count(lam, mu, nu),
    }


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(matching_triples, st.tuples(partitions, partitions, partitions)),
    st.tuples(*[st.integers(0, 2)] * 3),
    st.integers(0, 1),
)
def test_direct_counters_share_the_contract(triple, zeros, extra_k):
    k = infer_k(*triple)
    expected = _direct_counts(*triple, k)
    assert len(set(expected.values())) == 1
    if sum(triple[0]) + sum(triple[1]) != sum(triple[2]):
        assert expected["hive"] == 0
    padded = tuple(p + (0,) * z for p, z in zip(triple, zeros))
    assert _direct_counts(*padded, k + extra_k) == expected
    assert hive_count(*padded) == steinberg_count(*padded) == expected["hive"]
