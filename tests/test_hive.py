import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hive_oracle
from lrpoly import hive, typea
from lrpoly.exactla import MatrixQ
from lrpoly.hive import (
    HiveSystem,
    build_system,
    count_via_system,
    hive_count,
    interior_cells,
)


def test_count_two_hives():
    # interior entry ranges over exactly {4, 5}
    assert hive_count((2, 1, 0), (2, 1, 0), (3, 2, 1), 3) == 2


def test_count_mu_empty_forces_everything():
    assert hive_count((4, 2, 1), (), (4, 2, 1), 3) == 1
    assert hive_count((3,), (), (3,), 1) == 1


def test_count_sum_mismatch_is_zero():
    assert hive_count((1,), (1,), (3,), 3) == 0


def test_count_not_contained_is_zero():
    assert hive_count((4,), (1,), (3, 2), 2) == 0


def test_pieri_row():
    # s_(1) * s_(1) = s_(2) + s_(1,1)
    assert hive_count((1,), (1,), (2,), 2) == 1
    assert hive_count((1,), (1,), (1, 1), 2) == 1


def test_interior_cells_count():
    assert interior_cells(2) == []
    assert interior_cells(3) == [(1, 1)]
    assert interior_cells(4) == [(1, 1), (1, 2), (2, 1)]


def test_system_shape_k3():
    s = build_system(3)
    assert s.E.rows == 9 and s.E.cols == 10
    assert s.B.rows == 9 and s.B.cols == 9
    # slack block is the identity
    e = s.E.int_rows()
    for i in range(9):
        for j in range(9):
            assert e[i][1 + j] == (1 if i == j else 0)
    # first inequality is a11 <= nu1 + lambda1
    assert e[0][0] == 1
    assert s.B.int_rows()[0] == [1, 0, 0, 0, 0, 0, 1, 0, 0]


def test_system_k2_is_pure_slack():
    s = build_system(2)
    assert s.E.int_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert len(s.inequality_order) == 3


def test_system_mu_k_column_is_zero():
    for k in (2, 3, 4):
        s = build_system(k)
        mu_k_col = s.B.col(2 * k - 1)
        assert all(x == 0 for x in mu_k_col)


def test_system_json_fields():
    s = build_system(3)
    payload = json.loads(json.dumps(s.to_json_dict()))
    assert set(payload) == {"k", "E", "B", "inequality_order"}
    assert payload["k"] == 3
    assert len(payload["E"]) == 9 and len(payload["E"][0]) == 10


def test_count_via_system_matches_hive_count_k3_sample():
    s = build_system(3)
    for lam, mu, nu in [
        ((2, 1, 0), (2, 1, 0), (3, 2, 1)),
        ((3, 1), (2, 2), (4, 3, 1)),
        ((5, 5, 5), (3, 2, 1), (8, 7, 6)),
        ((2, 2), (2, 2), (4, 4)),
        ((4, 2), (3, 1), (5, 3, 2)),
    ]:
        assert count_via_system(s, lam, mu, nu) == hive_count(lam, mu, nu, 3)


def test_count_via_system_matches_hive_count_k4_sample():
    s = build_system(4)
    for lam, mu, nu in [
        ((3, 2, 1), (3, 2, 1), (4, 4, 2, 2)),
        ((4, 3, 2, 1), (2, 2, 1), (5, 4, 3, 3)),
        ((2, 1, 1, 1), (3, 3), (4, 3, 2, 2)),
    ]:
        assert count_via_system(s, lam, mu, nu) == hive_count(lam, mu, nu, 4)


def test_count_via_system_sum_mismatch_is_zero():
    s = build_system(3)
    assert count_via_system(s, (1,), (1,), (3,)) == 0


def test_system_rebuilt_from_printed_json_counts_the_same():
    payload = json.loads(json.dumps(build_system(4).to_json_dict()))
    s = HiveSystem(
        payload["k"],
        MatrixQ.from_rows(payload["E"]),
        MatrixQ.from_rows(payload["B"]),
        tuple(payload["inequality_order"]),
    )
    triple = ((3, 2, 1), (3, 2, 1), (4, 4, 2, 2))
    assert count_via_system(s, *triple) == hive_count(*triple, 4)


def test_build_system_is_built_once_per_k():
    assert build_system(4) is build_system(4)


def test_build_system_checks_its_row_count(monkeypatch):
    rows = hive._inequalities(3)
    monkeypatch.setattr(hive, "_inequalities", lambda k: rows[1:])
    with pytest.raises(RuntimeError, match="rhombus inequalities"):
        build_system.__wrapped__(3)


def test_hive_count_rechecks_every_constraint(monkeypatch):
    # Without square(0,0) the search admits a hive that violates it; the
    # full re-check must catch that with or without `python -O`.
    plan = hive._hive_plan(3)
    (cell,) = plan.cells
    by_last = {cell: plan.by_last[cell][1:]}
    monkeypatch.setattr(
        hive, "_hive_plan", lambda k: plan._replace(by_last=by_last)
    )
    with pytest.raises(RuntimeError, match="missed a constraint"):
        hive_count((), (3,), (2, 1), 3)


def test_hive_count_recheck_survives_python_O():
    test_id = f"{__file__}::test_hive_count_rechecks_every_constraint"
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         test_id],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout


def test_count_via_system_rejects_unbounded_variable():
    s = build_system(3)
    e, b = s.E.int_rows(), s.B.int_rows()
    keep = [m for m in range(len(e)) if e[m][0] <= 0]
    unbounded = HiveSystem(
        3,
        MatrixQ.from_rows([e[m] for m in keep]),
        MatrixQ.from_rows([b[m] for m in keep]),
        tuple(s.inequality_order[m] for m in keep),
    )
    with pytest.raises(RuntimeError, match="no upper bound"):
        count_via_system(unbounded, (2, 1), (2, 1), (3, 2, 1))


def test_padding_invariance():
    base = hive_count((2, 1), (2, 1), (3, 2, 1), 3)
    assert hive_count((2, 1, 0), (2, 1, 0), (3, 2, 1, 0), 4) == base
    assert hive_count((2, 1), (2, 1), (3, 2, 1), 5) == base


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_symmetry_in_lambda_mu(data):
    lam = tuple(
        sorted(data.draw(st.lists(st.integers(0, 4), max_size=3)), reverse=True)
    )
    mu = tuple(
        sorted(data.draw(st.lists(st.integers(0, 4), max_size=3)), reverse=True)
    )
    nu = tuple(
        sorted(data.draw(st.lists(st.integers(0, 5), max_size=3)), reverse=True)
    )
    assert hive_count(lam, mu, nu, 3) == hive_count(mu, lam, nu, 3)


# Inputs that, between them, expose every single constraint dropped from
# the k=4 and k=5 plans (by_last entry order as _hive_plan builds it).
GUARD_INPUTS = {
    4: [
        ((5, 3, 2), (4, 4, 2), (7, 5, 5, 3)),
        ((5, 2, 2), (5, 3, 2, 1), (8, 6, 4, 2)),
        ((5, 4, 2), (5, 4, 2, 1), (8, 7, 5, 3)),
        ((4, 4, 2), (5, 4, 3), (8, 6, 5, 3)),
        ((5, 2, 1), (5, 5, 2, 1), (7, 7, 4, 3)),
        ((5, 3, 1), (5, 3, 3), (8, 6, 3, 3)),
        ((5, 3, 1), (5, 2, 1), (7, 4, 4, 2)),
        ((4, 3, 3, 1), (5, 3, 1), (7, 6, 5, 2)),
    ],
    5: [
        ((5, 4, 3, 2, 1), (4, 3, 2, 1), (8, 5, 5, 4, 3)),
        ((4, 3, 1), (5, 4, 3, 2), (7, 6, 4, 4, 1)),
        ((4, 3, 2, 1), (4, 3, 1, 1), (5, 4, 4, 3, 3)),
        ((5, 2, 2, 1), (5, 4, 4, 2, 2), (8, 7, 6, 4, 2)),
        ((4, 4, 3, 1), (5, 4, 4, 2), (8, 7, 6, 4, 2)),
        ((5, 3, 2), (4, 4, 3, 2), (7, 5, 5, 3, 3)),
        ((4, 2, 2), (5, 2, 1), (7, 4, 2, 2, 1)),
        ((4, 4, 3, 3), (5, 4, 2, 1, 1), (7, 6, 6, 4, 4)),
    ],
}


@pytest.mark.parametrize("k", [4, 5])
def test_hive_count_catches_every_dropped_constraint(monkeypatch, k):
    # Dropping one bound lets the search count hives that break it: either
    # while branching or inside the last entry's interval, whose ends are
    # both re-checked.  Dropping a cell's only upper bound leaves it
    # unbounded, which is caught before any hive is counted.
    plan = hive._hive_plan(k)
    for cell in plan.cells:
        entries = plan.by_last[cell]
        uppers = sum(not is_lower for is_lower, _, _ in entries)
        for e, (is_lower, _, _) in enumerate(entries):
            by_last = dict(plan.by_last)
            by_last[cell] = entries[:e] + entries[e + 1:]
            dropped = plan._replace(by_last=by_last)
            monkeypatch.setattr(hive, "_hive_plan", lambda k: dropped)
            expected = (
                "no upper bound" if not is_lower and uppers == 1
                else "missed a constraint"
            )
            messages = []
            for triple in GUARD_INPUTS[k]:
                try:
                    hive_count(*triple, k)
                except RuntimeError as err:
                    messages.append(str(err))
            assert any(expected in m for m in messages), (cell, e, messages)


@pytest.mark.parametrize("triple, k, expected", [
    # the k=4 triple (4,2,1)(4,3,2)(6,5,3,2) at N=13
    (((52, 26, 13), (52, 39, 26), (78, 65, 39, 26)), 4, 1015),
    # the k=5 triple (4,3,2,1)(4,3,2,1)(6,5,4,3,2) at N=3
    (((12, 9, 6, 3), (12, 9, 6, 3), (18, 15, 12, 9, 6)), 5, 616),
])
def test_hive_count_matches_oracle_on_stretched_triples(triple, k, expected):
    assert hive_count(*triple, k) == expected
    assert hive_oracle.hive_count(*triple, k) == expected


def _shaped_partition(draw, k: int) -> tuple:
    shape = draw(st.sampled_from(("empty", "one-row", "k-row", "distinct",
                                  "any")))
    max_part = {2: 6, 3: 6, 4: 5, 5: 4, 6: 3}[k]
    if shape == "empty":
        return ()
    if shape == "one-row":
        return (draw(st.integers(1, max_part)),)
    if shape == "distinct":
        parts = draw(st.lists(
            st.integers(1, k + 1), min_size=k, max_size=k, unique=True
        ))
    else:
        parts = draw(st.lists(
            st.integers(1 if shape == "k-row" else 0, max_part),
            min_size=k, max_size=k,
        ))
    return tuple(sorted(parts, reverse=True))


def _add_strips(draw, lam, mu, k: int) -> tuple:
    """lam plus one horizontal strip per row of mu, box by box (Pieri)."""
    nu = list(typea.pad_partition(lam, k))
    for r in mu:
        old = nu[:]
        for _ in range(r):
            rows = [i for i in range(k) if i == 0 or nu[i] < old[i - 1]]
            nu[draw(st.sampled_from(rows))] += 1
    return tuple(nu)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hive_count_matches_oracle(data):
    k = data.draw(st.integers(2, 6), label="k")
    lam = _shaped_partition(data.draw, k)
    mu = _shaped_partition(data.draw, k)
    if data.draw(st.booleans(), label="nu from strips"):
        nu = _add_strips(data.draw, lam, mu, k)
    else:
        nu = tuple(sorted(
            data.draw(st.lists(st.integers(0, 8), max_size=k)), reverse=True
        ))
    expected = hive_oracle.hive_count(lam, mu, nu, k)
    assert hive_count(lam, mu, nu, k) == expected
    assert hive_count(mu, lam, nu, k) == expected
    assert hive_count(lam + (0, 0), mu, nu + (0,), k) == expected
    if k == typea.infer_k(lam, mu, nu):
        assert hive_count(lam, mu + (0,), nu) == expected
