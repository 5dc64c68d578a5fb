"""Inequality lab: clause checks, counterexample classification, sweeps, scan."""

from __future__ import annotations

import pytest

from shadowlab.exact import EMPTY, Seq, seq_value
from shadowlab.inequalities import (
    brute_force_equality_splits,
    check_abc,
    check_abck,
    conjecture_scan,
    equality_splits,
    general_level_sweep,
    lemma_sweep,
    real_binom,
    splits_comparison,
)


def test_counterexample_negative_terms():
    # base equality holds through generalized binomials, the i = 1 inequality
    # fails, and non-negativity is the violated hypothesis
    a = Seq((4, 2), 3)
    b = Seq((3, 2, -10), 3)
    c = Seq((-10, -42), 2)
    report = check_abc(a, b, c, 3)
    assert report.hypotheses["equality_base"]
    assert seq_value(b, 3) == -8 and seq_value(c, 2) == 13
    assert not report.hypotheses["nonneg"]
    assert report.hypotheses["lex"]
    row = report.inequality_at[1]
    assert (row.lhs, row.rhs) == (8, -3)
    assert not row.holds


def test_counterexample_empty_b():
    a = Seq((1,), 1)
    report = check_abc(a, EMPTY, Seq((0,), 0), 1)
    assert report.hypotheses["equality_base"]  # 1 = 0 + 1
    assert not report.hypotheses["b_nonempty"]
    row = report.inequality_at[1]
    assert (row.lhs, row.rhs) == (1, 0)
    assert not row.holds


def test_counterexample_low_terms_break_propagation():
    a = Seq((3, 2, 1), 3)
    b = Seq((3, 0), 3)
    c = Seq((2, 1), 2)
    report = check_abc(a, b, c, 3)
    assert report.hypotheses["equality_base"]
    assert not report.hypotheses["b_lower_bounds"]  # b_1 = 0 < 1
    assert report.hypotheses["nonneg"]
    row1 = report.inequality_at[1]
    assert row1.equal and (row1.lhs, row1.rhs) == (6, 6)
    row2 = report.inequality_at[2]
    assert (row2.lhs, row2.rhs) == (4, 5)
    assert row2.holds and not row2.equal
    assert report.equality_at_1 and not report.equality_propagates


def test_check_abck_trivial_split():
    a = Seq((5,), 3)
    report = check_abck(a, Seq((5,), 3), EMPTY, 3, 3, 3)
    assert all(r.equal for r in report.inequality_at.values())
    assert all(r.equal for r in report.shifted_at.values())


def test_check_abck_full_decrement_split():
    a = Seq((5, 3), 3)
    b = Seq((4, 2), 3)
    c = Seq((4, 2), 2)
    report = check_abck(a, b, c, 3, 3, 2)
    assert seq_value(a, 3) == 13
    assert seq_value(b, 3) == 5 and seq_value(c, 2) == 8
    assert seq_value(b, 2) == 8 and seq_value(c, 1) == 5
    assert all(r.equal for r in report.inequality_at.values())


def test_check_abck_rejects_bad_levels():
    a = Seq((5,), 3)
    with pytest.raises(ValueError):
        check_abck(a, Seq((4,), 3), EMPTY, 3, 3, 1)
    with pytest.raises(ValueError):
        check_abck(a, EMPTY, Seq((4,), 2), 3, 3, 2)  # empty b in the (k, k-1) case


def test_lemma_sweep_small_scale():
    for k, checked in ((2, 651), (3, 1907)):
        result = lemma_sweep(k, 6)
        assert result["violations"] == []
        assert result["checked"] == checked


def test_split_searches_reject_k_below_two():
    # level k - 1 = 0 has C(t, 0) = 1 for every t, so the split universe
    # would be infinite; both entries refuse it instead of looping
    for k in (1, 0):
        with pytest.raises(ValueError):
            lemma_sweep(k, 6)
    with pytest.raises(ValueError):
        brute_force_equality_splits(Seq((1,), 1), 1)
    with pytest.raises(ValueError):
        brute_force_equality_splits(Seq((3,), 1), 1)


def test_general_level_sweep():
    for k, amax, shift, checked in (
        (2, 10, 3, 199343),
        (3, 8, 2, 230922),
        (5, 8, 1, 266698),
    ):
        result = general_level_sweep(k, amax, kmax_shift=shift)
        assert result["violations"] == [], (k, result["violations"][:3])
        assert result["checked"] == checked


def test_equality_splits_examples():
    a = Seq((5, 3), 3)
    got = {(b.terms, c.terms) for b, c in equality_splits(a, 3)}
    assert got == {
        ((5,), (3,)),
        ((4, 3), (4,)),
        ((4, 2), (4, 2)),
        ((5, 3), ()),
    }
    a5 = Seq((5,), 3)
    got5 = {(b.terms, c.terms) for b, c in equality_splits(a5, 3)}
    assert ((4,), (4,)) in got5
    assert ((5,), ()) in got5


def test_equality_splits_match_brute_force_small():
    from shadowlab.inequalities import split_profile

    for k in (3, 4):
        for terms in [(5,), (6, 3), (6, 4, 2) if k == 4 else (5, 2)]:
            a = Seq(terms, k)
            if not a.is_k_binomial(k):
                continue
            formula = {split_profile(b, c, k) for b, c in equality_splits(a, k)}
            brute = {
                split_profile(b, c, k)
                for b, c in brute_force_equality_splits(a, k)
            }
            assert formula == brute, (k, terms)


def test_splits_comparison_small():
    result = splits_comparison(amax=6, kmax=4)
    assert result["extras"] == []
    assert result["missing"] == []
    assert result["checked"] == 38


def test_equality_splits_precondition():
    with pytest.raises(ValueError):
        equality_splits(Seq((5, 4, 3), 3), 3)  # full-length cascade


def test_real_binom():
    assert real_binom(5.0, 3) == pytest.approx(10.0)
    assert real_binom(-10.0, 2) == pytest.approx(55.0)
    assert real_binom(2.5, 0) == 1.0
    assert real_binom(4.0, -1) == 0.0
    assert real_binom(1.0, 2) == 0.0  # root of the falling factorial


def test_conjecture_closed_form_point():
    # x = 5, y = 4, k = 3: z lands on 4 and the inequality is tight
    report = conjecture_scan(3, [5.0], y_samples=2)
    assert report.min_slack == pytest.approx(0.0, abs=1e-9)
    x, y, z = report.argmin
    assert (x, y) == (5.0, 4.0)
    assert z == pytest.approx(4.0, abs=1e-6)


def test_conjecture_equality_branch_z_floor():
    # at y = x the z-solve returns the floor k - 2; picking the next root
    # k - 3 instead would give an exactly tight inequality
    assert real_binom(1.0, 2) == 0.0  # z = k - 2 = 1 solves C(z, 2) = 0 at k = 3
    assert real_binom(0.0, 1) == 0.0  # z = k - 3 zeroes the slack term as well
    report = conjecture_scan(3, [6.0], y_samples=3)
    assert report.min_slack >= -1e-9


def test_conjecture_scan_grid():
    for k in (3, 4):
        xs = [k + 0.25 * i for i in range(0, 17)]
        report = conjecture_scan(k, xs, y_samples=9)
        assert report.min_slack >= -1e-9
        assert report.near_violations == []
    with pytest.raises(ValueError):
        conjecture_scan(1, [3.0])
    with pytest.raises(ValueError):
        conjecture_scan(3, [2.0])
