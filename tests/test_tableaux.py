from lrpoly.hive import hive_count
from lrpoly.tableaux import lr_rule_count
from conftest import partitions_up_to, triples_with_matching_sum


def test_single_cell():
    assert lr_rule_count((1,), (1,), (2,)) == 1
    assert lr_rule_count((1,), (1,), (1, 1)) == 1


def test_two_fillings():
    assert lr_rule_count((2, 1), (2, 1), (3, 2, 1)) == 2


def test_empty_content():
    assert lr_rule_count((3, 2), (), (3, 2)) == 1
    assert lr_rule_count((), (), ()) == 1


def test_not_contained():
    assert lr_rule_count((3,), (1,), (2, 2)) == 0


def test_sum_mismatch():
    assert lr_rule_count((1,), (1,), (3,)) == 0


def test_known_small_products():
    # s_(2,1) * s_(2,1) expanded: coefficient of (2,2,1,1) is 1,
    # of (3,2,1) is 2, of (2,2,2) is 1, of (3,3) is 1
    assert lr_rule_count((2, 1), (2, 1), (2, 2, 1, 1)) == 1
    assert lr_rule_count((2, 1), (2, 1), (2, 2, 2)) == 1
    assert lr_rule_count((2, 1), (2, 1), (3, 3)) == 1
    assert lr_rule_count((2, 1), (2, 1), (4, 2)) == 1
    assert lr_rule_count((2, 1), (2, 1), (4, 1, 1)) == 1


def test_matches_hive_exhaustively_small():
    for lam, mu, nu in triples_with_matching_sum(partitions_up_to(3, 3)):
        assert lr_rule_count(lam, mu, nu) == hive_count(lam, mu, nu, 3), (
            lam, mu, nu,
        )


def test_symmetry_on_samples():
    cases = [
        ((3, 1), (2, 2, 1), (4, 3, 2)),
        ((4, 2, 1), (3, 1), (5, 3, 2, 1)),
        ((2, 2), (2, 1, 1), (3, 2, 2, 1)),
    ]
    for lam, mu, nu in cases:
        assert lr_rule_count(lam, mu, nu) == lr_rule_count(mu, lam, nu)


def test_deep_skew_shape_needs_no_recursion():
    # one search level per cell of nu/lam: 1200 here
    assert lr_rule_count((), (600, 600), (600, 600)) == 1
