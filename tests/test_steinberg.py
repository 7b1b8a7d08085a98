import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpoly import kostant, steinberg, typea
from lrpoly.exactla import MultiPolyQ
from lrpoly.hive import hive_count
from lrpoly.steinberg import (
    enumerate_hyperplanes,
    free_coordinates,
    is_generic,
    max_delta_shift,
    same_region_samples,
    steinberg_count,
    steinberg_count_via_chambers,
    steinberg_sum,
    triple_from_free,
    type_signature,
    verify_region_polynomial,
    _weyl_plan,
)
from lrpoly.tableaux import lr_rule_count
from arrangement_oracle import (
    act,
    bar,
    build,
    conjugates_of_fundamental_weights,
    first_pairs,
    raw_hyperplane,
)
from conftest import partitions_up_to, triples_with_matching_sum


def test_count_k2_single():
    assert steinberg_count((1,), (1,), (2,), 2) == 1


def test_count_identity_triple():
    assert steinberg_count((3, 1), (), (3, 1), 2) == 1


def test_count_two():
    assert steinberg_count((2, 1, 0), (2, 1, 0), (3, 2, 1), 3) == 2


def test_count_sum_mismatch_is_zero():
    assert steinberg_count((1,), (1,), (3,), 2) == 0


def test_matches_hive_exhaustively_k2():
    for lam, mu, nu in triples_with_matching_sum(partitions_up_to(2, 4)):
        assert steinberg_count(lam, mu, nu, 2) == hive_count(lam, mu, nu, 2)


def test_matches_hive_sampled_k3():
    rng = random.Random(3)
    parts = partitions_up_to(3, 5)
    by_size = {}
    for p in parts:
        by_size.setdefault(sum(p), []).append(p)
    checked = 0
    while checked < 40:
        lam, mu = rng.choice(parts), rng.choice(parts)
        cands = by_size.get(sum(lam) + sum(mu))
        if not cands:
            continue
        nu = rng.choice(cands)
        assert steinberg_count(lam, mu, nu, 3) == hive_count(lam, mu, nu, 3)
        checked += 1


def test_gl_weights_equal_barred_sl_weights():
    rng = random.Random(9)
    parts = partitions_up_to(3, 4)
    by_size = {}
    for p in parts:
        by_size.setdefault(sum(p), []).append(p)
    checked = 0
    while checked < 50:
        lam, mu = rng.choice(parts), rng.choice(parts)
        cands = by_size.get(sum(lam) + sum(mu))
        if not cands:
            continue
        nu = rng.choice(cands)
        k = 3
        plain = steinberg_sum(
            typea.weight(typea.pad_partition(lam, k)),
            typea.weight(typea.pad_partition(mu, k)),
            typea.weight(typea.pad_partition(nu, k)),
            k,
        )
        barred = steinberg_sum(
            bar(lam, k), bar(mu, k), bar(nu, k), k
        )
        assert plain == barred == hive_count(lam, mu, nu, k)
        checked += 1


def _reference_sum(lam_w, mu_w, nu_w, k):
    # Steinberg's formula term by term, in Fractions, over all of S_k x S_k.
    delta = build(k).delta
    lam_d = tuple(x + d for x, d in zip(lam_w, delta))
    mu_d = tuple(x + d for x, d in zip(mu_w, delta))
    total = 0
    for sigma in typea.all_permutations(k):
        for tau in typea.all_permutations(k):
            v = tuple(
                a + b - c - 2 * d
                for a, b, c, d in zip(
                    act(sigma, lam_d), act(tau, mu_d), nu_w, delta
                )
            )
            sign = (-1) ** (typea.inversions(sigma) + typea.inversions(tau))
            total += sign * kostant.kostant_count(k, v)
    return total


def test_sum_matches_reference_on_rational_weights():
    # Non-integral weights: only pairs whose fractional parts cancel
    # reach an integral point, and every other pair counts 0.
    rng = random.Random(17)
    for _ in range(60):
        k = rng.choice((2, 3))
        den = rng.choice((1, 2, 3))
        lam_w, mu_w = (
            tuple(Fraction(rng.randint(-4, 6), den) for _ in range(k))
            for _ in range(2)
        )
        nu_w = tuple(Fraction(rng.randint(-4, 6), den) for _ in range(k - 1))
        nu_w += (sum(lam_w) + sum(mu_w) - sum(nu_w),)
        assert steinberg_sum(lam_w, mu_w, nu_w, k) == _reference_sum(
            lam_w, mu_w, nu_w, k
        )


PART_MAX = {2: 6, 3: 5, 4: 3, 5: 2}


@st.composite
def kernel_triples(draw):
    """(lam, mu, nu, k), k = 2..5, with |lam| + |mu| = |nu|.

    lam and mu may be empty or one row; nu starts from max(lam, mu) and
    takes the other boxes in random rows, so it often has k rows.
    """
    k = draw(st.integers(2, 5))
    top = PART_MAX[k]
    full = st.lists(st.integers(0, top), min_size=k, max_size=k).map(
        lambda p: tuple(sorted(p, reverse=True))
    )
    one_row = st.integers(0, top).map(lambda a: (a,))
    shape = st.one_of(full, st.just(()), one_row)
    lam, mu = draw(shape), draw(shape)
    lam_k, mu_k = typea.pad_partition(lam, k), typea.pad_partition(mu, k)
    nu = [max(a, b) for a, b in zip(lam_k, mu_k)]
    extra = sum(lam) + sum(mu) - sum(nu)
    rows = st.lists(st.integers(0, k - 1), min_size=extra, max_size=extra)
    for row in draw(rows):
        nu[row] += 1
    return lam, mu, tuple(sorted(nu, reverse=True)), k


@settings(max_examples=80, deadline=None)
@given(kernel_triples())
def test_kernel_matches_hive_and_tableaux(triple):
    lam, mu, nu, k = triple
    c = hive_count(lam, mu, nu, k)
    assert steinberg_count(lam, mu, nu, k) == c == lr_rule_count(lam, mu, nu)


def test_stretched_k5_triple_matches_hive():
    lam, mu, nu = (8, 6, 4, 2), (8, 6, 4, 2), (12, 10, 8, 6, 4)
    assert steinberg_count(lam, mu, nu) == hive_count(lam, mu, nu, 5) == 126


@pytest.mark.parametrize("lam, mu, nu, c", [
    ((4, 3, 2, 1), (4, 3, 2, 1), (6, 5, 4, 3, 2), 16),
    ((5, 4, 3, 2, 1), (5, 4, 3, 2, 1), (8, 7, 6, 4, 3, 2), 76),
])
def test_sigma_row_skip_keeps_the_count(lam, mu, nu, c):
    # most sigma rows are skipped whole here; a row with one reachable
    # tau must still be summed
    assert steinberg_count(lam, mu, nu) == hive_count(lam, mu, nu) == c


@pytest.mark.parametrize("n, c", [(2, 2214), (4, 237229)])
def test_k6_stretched_triple_is_pinned(n, c):
    # N=2 also against hive; hive takes tens of seconds at N=4
    lam, mu, nu = (
        tuple(n * x for x in p)
        for p in ((5, 4, 3, 2, 1), (5, 4, 3, 2, 1), (8, 7, 6, 4, 3, 2))
    )
    assert steinberg_count(lam, mu, nu) == c
    if n == 2:
        assert hive_count(lam, mu, nu) == c


def test_weyl_plan_has_one_entry_per_permutation():
    assert len(_weyl_plan(4)) == 24
    for cached in (
        _weyl_plan,
        typea.wall_table,
        kostant._count_from,
        kostant.kostant_chambers,
    ):
        assert cached.cache_info().maxsize is not None


def test_hyperplanes_k2_dedup_below_raw_count():
    hps = enumerate_hyperplanes(2)
    assert 0 < len(hps) < 8


def test_hyperplanes_identity_shift_is_zero():
    # the identity pair comes first, so it keeps one hyperplane per
    # wall pair {w, -w}; its delta shift vanishes on every wall
    for k in (2, 3, 4):
        ident = tuple(range(1, k + 1))
        kept = [
            h for h in enumerate_hyperplanes(k) if h.sigma == h.tau == ident
        ]
        assert 2 * len(kept) == len(typea.wall_table(k))
        assert all(h.shift == 0 for h in kept)


@pytest.mark.parametrize("k", [2, 3])
def test_hyperplanes_match_the_fraction_oracle(k):
    # same key classes, and the same first (sigma, tau) per class
    hps = enumerate_hyperplanes(k)
    oracle = first_pairs(k)
    assert {h.canonical(): (h.sigma, h.tau) for h in hps} == oracle
    assert len(hps) == len(oracle)
    data = build(k)
    for h in hps:
        assert raw_hyperplane(h.sigma, h.tau, h.theta, h.j, data) == (
            h.normal, h.shift
        )


def test_hyperplanes_k4_count():
    assert len(enumerate_hyperplanes(4)) == 172


def test_hyperplanes_k2_raw_coordinates():
    for h in enumerate_hyperplanes(2):
        assert all(x in (0, Fraction(1, 2), Fraction(-1, 2)) for x in h.normal)


def test_hyperplane_normals_canonical_sign():
    for k in (2, 3):
        for h in enumerate_hyperplanes(k):
            canon, _ = h.canonical()
            lead = next(x for x in canon if x != 0)
            assert lead > 0


def test_shift_bounded_by_max_delta_shift():
    for k in (2, 3):
        bound = max_delta_shift(k)
        for h in enumerate_hyperplanes(k):
            assert abs(h.shift) <= bound


@pytest.mark.parametrize("k", [2, 3])
def test_max_delta_shift_is_the_largest_raw_shift(k):
    data = build(k)
    perms = list(typea.all_permutations(k))
    largest = max(
        abs(raw_hyperplane(sigma, tau, theta, j, data)[1])
        for sigma in perms
        for tau in perms
        for theta in perms
        for j in range(1, k)
    )
    assert max_delta_shift(k) == largest


def test_all_zero_triple_not_generic():
    assert not is_generic((), (), (), 2)


def test_regression_pin_known_nongeneric_triple():
    # the sigma = tau = identity point lands on a wall here
    assert not is_generic((4, 1, 0), (3, 1, 0), (5, 3, 1), 3)


def test_signature_requires_generic():
    with pytest.raises(ValueError):
        type_signature((), (), (), 2)


def test_genericity_rejects_a_sum_mismatch():
    for check in (is_generic, type_signature):
        with pytest.raises(ValueError, match="must equal"):
            check((2, 1), (1,), (5,), 2)
    nongeneric = ((4, 1, 0), (3, 1, 0), (5, 3, 1))
    with pytest.raises(steinberg.NotGenericError):
        type_signature(*nongeneric, 3)
    with pytest.raises(steinberg.NotGenericError):
        verify_region_polynomial(*nongeneric, 3)


def _find_generic_seed(rng, scale_range=(2, 9)):
    from lrpoly import lr3

    cones, _ = lr3.load_k3()
    while True:
        cone = rng.choice(cones)
        gens = [lr3.RAYS[g] for g in cone.generators]
        coeffs = [rng.randint(*scale_range) for _ in gens]
        p = tuple(sum(c * g[r] for c, g in zip(coeffs, gens)) for r in range(9))
        lam, mu, nu = lr3.split_point(p)
        if is_generic(lam, mu, nu, 3):
            return lam, mu, nu


def test_signature_entries_are_strict_signs():
    rng = random.Random(5)
    lam, mu, nu = _find_generic_seed(rng)
    sig = type_signature(lam, mu, nu, 3)
    assert set(sig.signs) <= {1, -1}
    assert len(sig.digest()) == len(sig.signs)


def test_signature_swap_relabels_rows():
    rng = random.Random(7)
    while True:
        lam, mu, nu = _find_generic_seed(rng)
        if is_generic(mu, lam, nu, 3):
            break
    k = 3
    walls = conjugates_of_fundamental_weights(k)
    nwalls = len(walls)
    perms = list(typea.all_permutations(k))
    index = {p: i for i, p in enumerate(perms)}
    sig = type_signature(lam, mu, nu, k).signs
    swapped = type_signature(mu, lam, nu, k).signs

    def block(signs, si, ti):
        start = (si * len(perms) + ti) * nwalls
        return signs[start : start + nwalls]

    for sigma in perms:
        for tau in perms:
            assert block(sig, index[sigma], index[tau]) == block(
                swapped, index[tau], index[sigma]
            )


def test_signature_scaling_invariance_when_generic():
    rng = random.Random(11)
    while True:
        lam, mu, nu = _find_generic_seed(rng)
        lam2 = tuple(2 * x for x in lam)
        mu2 = tuple(2 * x for x in mu)
        nu2 = tuple(2 * x for x in nu)
        if is_generic(lam2, mu2, nu2, 3):
            break
    assert (
        type_signature(lam, mu, nu, 3).signs
        == type_signature(lam2, mu2, nu2, 3).signs
    )


def test_region_polynomial_k2_is_constant():
    # degree bound C(1,2) = 0: any generic k=2 seed fits a constant
    lam, mu, nu = (5, 2), (4, 1), (7, 5)
    assert is_generic(lam, mu, nu, 2)
    poly, ok = verify_region_polynomial(lam, mu, nu, 2, sample_count=8)
    assert ok
    assert poly.total_degree() <= 0


def test_region_polynomial_reports_a_held_out_miss(monkeypatch):
    # the k=2 seed above; corrupt the count of its last sample, which
    # the constant fit holds out
    lam, mu, nu = (5, 2), (4, 1), (7, 5)
    last = same_region_samples(lam, mu, nu, 2, 8)[-1]
    hive_count = steinberg.hive_count

    def corrupted(cl, cm, cn, k):
        return hive_count(cl, cm, cn, k) + ((cl, cm, cn) == last)

    monkeypatch.setattr(steinberg, "hive_count", corrupted)
    assert verify_region_polynomial(lam, mu, nu, 2, sample_count=8) == (
        None, False
    )


def test_region_polynomial_k3_matches_cone_table():
    from lrpoly import lr3

    rng = random.Random(5)
    cones, _ = lr3.load_k3()
    cone = next(c for c in cones if c.name == "kappa2")
    gens = [lr3.RAYS[g] for g in cone.generators]
    while True:
        coeffs = [rng.randint(2, 9) for _ in gens]
        p = tuple(sum(c * g[r] for c, g in zip(coeffs, gens)) for r in range(9))
        lam, mu, nu = lr3.split_point(p)
        if is_generic(lam, mu, nu, 3) and len(lr3.locate(p)) == 1:
            break
    poly, ok = verify_region_polynomial(lam, mu, nu, 3, sample_count=20)
    assert ok
    # reduce 1 + nu2 - nu3 modulo the sum relation (mu3 eliminated)
    expected = MultiPolyQ.linear(8, 1, {6: 1, 7: -1})
    assert poly == expected


def test_chamber_assembled_sum_matches_direct():
    rng = random.Random(13)
    for _ in range(8):
        lam, mu, nu = _find_generic_seed(rng)
        assert steinberg_count_via_chambers(lam, mu, nu, 3) == steinberg_count(
            lam, mu, nu, 3
        )


def test_same_region_samples_share_signature():
    rng = random.Random(21)
    lam, mu, nu = _find_generic_seed(rng)
    sig = type_signature(lam, mu, nu, 3).signs
    samples = same_region_samples(lam, mu, nu, 3, 6)
    assert samples, "seed should find at least itself"
    for cl, cm, cn in samples:
        assert type_signature(cl, cm, cn, 3).signs == sig


def test_free_coordinate_roundtrip():
    lam, mu, nu = (4, 2, 1), (3, 2, 1), (6, 4, 3)
    coords = free_coordinates(lam, mu, nu, 3)
    assert coords == (4, 2, 1, 3, 2, 6, 4, 3)
    assert triple_from_free(coords, 3) == ((4, 2, 1), (3, 2, 1), (6, 4, 3))
