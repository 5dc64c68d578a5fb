"""Inequality lab: clause checks, counterexample classification, sweeps, scan."""

from __future__ import annotations

import hashlib
import json
from itertools import combinations

import pytest

from shadowlab import inequalities
from shadowlab.exact import EMPTY, BudgetError, Seq, seq_shift, seq_value
from shadowlab.inequalities import (
    brute_force_equality_splits,
    check_abc,
    check_abck,
    conjecture_scan,
    equality_splits,
    general_level_sweep,
    lemma_sweep,
    real_binom,
    split_profile,
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


def test_sweeps_past_amax_enumerate_nothing(monkeypatch):
    # a level k > amax holds no cascade, so it checks nothing; the sweeps
    # answer at entry, with no sequence enumerated, after their own checks
    def fail(*args, **kw):
        raise AssertionError("enumerated a level with no cascade")

    monkeypatch.setattr(inequalities, "_admissible", fail)
    assert lemma_sweep(17, 10) == {"k": 17, "amax": 10, "checked": 0, "violations": []}
    assert general_level_sweep(17, 10) == {"checked": 0, "violations": []}
    with pytest.raises(ValueError, match="amax >= 2"):
        lemma_sweep(17, 1)


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


def test_general_level_sweep_checks_its_inputs():
    for k, amax, shift in ((0, 5, 1), (-1, 5, 1), (3, 8, -1)):
        with pytest.raises(ValueError):
            general_level_sweep(k, amax, kmax_shift=shift)
    # no cascade has a_0 < k, so there is nothing to check, as in lemma_sweep(3, 2)
    for k, amax in ((3, 2), (2, 1), (2, -4)):
        assert general_level_sweep(k, amax, kmax_shift=2) == {"checked": 0, "violations": []}
    assert lemma_sweep(3, 2)["checked"] == 0
    result = general_level_sweep(1, 5, kmax_shift=1)
    assert result == {"checked": 378, "violations": []}


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
    # over the scan budget: refused before any point is evaluated
    with pytest.raises(BudgetError, match="1001 points times 1000 y samples"):
        conjecture_scan(3, [3.0] * 1001, y_samples=1000)


def _cascade_terms(k, amax):
    """Every cascade at level k with a_0 <= amax, in the order the sweeps
    list them: shorter first, then larger terms first.  Built from
    ``combinations`` and ``is_k_binomial``, this is the independent oracle
    for the cascades the sweeps take from ``_cascade_rows``."""
    return [
        terms
        for length in range(1, k + 1)
        for terms in combinations(range(amax, 0, -1), length)
        if Seq(terms, k).is_k_binomial(k)
    ]


def _lemma_triple_loop(k, amax, universe):
    """The lemma sweep one triple at a time, over a given split universe."""
    bs, c_by_value = universe
    checked = 0
    violations = []
    for terms in _cascade_terms(k, amax):
        a = Seq(terms, k)
        arows = tuple(seq_value(a, k - i) for i in range(k + 1))
        a1 = tuple(x - 1 for x in terms)
        for b_terms, brows in bs:
            if not b_terms or brows[0] > arows[0] or b_terms < a1:
                continue
            for c_terms, crows in c_by_value.get(arows[0] - brows[0], ()):
                checked += 1
                sums = [brows[i] + crows[i] for i in range(k + 1)]
                failed = [i for i in range(1, k + 1) if arows[i] > sums[i]]
                if failed:
                    violations.append((terms, b_terms, c_terms, "inequality", failed[0]))
                elif arows[1] == sums[1] and any(
                    arows[i] != sums[i] for i in range(2, k + 1)
                ):
                    violations.append((terms, b_terms, c_terms, "propagation", 0))
    return {"k": k, "amax": amax, "checked": checked, "violations": violations}


def _lemma_cap(k, amax):
    """The largest cascade value at level k with a_0 <= amax, the cap
    lemma_sweep builds its universe at."""
    return seq_value(Seq(tuple(range(amax, amax - k, -1)), k), k)


def test_lemma_sweep_matches_triple_loop():
    # the one certificate over both ranges of a b value, and the triple loop
    # on the blocks it leaves open (lex-boundary blocks at every scale here),
    # against the plain triple loop over the real universe: the same triple
    # count, no violation
    for k, amax in ((2, 6), (3, 6), (4, 6), (3, 8)):
        universe = inequalities._split_universe(k, _lemma_cap(k, amax))
        expected = _lemma_triple_loop(k, amax, universe)
        assert expected["checked"] > 0 and expected["violations"] == []
        assert lemma_sweep(k, amax) == expected, (k, amax)


def test_cascade_rows_refuse_an_order_other_than_value_order(monkeypatch):
    # the value ranges rest on cascades in tuple order being in value order;
    # an enumerator that breaks it is refused, not swept
    real = inequalities._admissible
    monkeypatch.setattr(inequalities, "_admissible", lambda *args, **kw: real(*args, **kw)[::-1])
    for sweep in (
        lambda: lemma_sweep(3, 6),
        lambda: general_level_sweep(3, 6, kmax_shift=1),
        lambda: splits_comparison(6, 3),
    ):
        with pytest.raises(RuntimeError, match="tuple order"):
            sweep()


def _swapped_values(entries, value_of, with_value):
    """Entries with the values of entries 4i and 4i + 1 exchanged, so that
    values no longer grow with tuple order and one value's entries
    interleave with another's."""
    out = list(entries)
    for j in range(0, len(out) - 1, 4):
        first, second = out[j], out[j + 1]
        out[j], out[j + 1] = with_value(first, value_of(second)), with_value(second, value_of(first))
    return out


def test_lemma_sweep_fallback_matches_triple_loop(monkeypatch):
    # no real triple violates the lemma, so planted rows stand in:
    # some c lose one at level 1 and others at their last level, where only
    # the deepest column shows it (inequality violations), some b gain one
    # at level 2 (propagation violations where level 1 stays tight), and
    # swapped b values make the blocks' order differ from the universe's.
    # Violations land both where a b value's whole group is at least a - 1
    # and where the group holds a - 1's lex boundary
    real = inequalities._split_universe

    def bump(rows, i, d):
        return rows[:i] + (rows[i] + d,) + rows[i + 1 :]

    for k, amax in ((3, 6), (4, 7)):
        bs, c_by_value = real(k, _lemma_cap(k, amax))
        planted_bs = _swapped_values(
            [(t, bump(rows, 2, 1) if j % 7 == 3 else rows) for j, (t, rows) in enumerate(bs)],
            lambda entry: entry[1][0],
            lambda entry, v: (entry[0], (v,) + entry[1][1:]),
        )
        planted_cs = {
            v: [
                (t, bump(rows, 1, -1) if j % 5 == 2 else bump(rows, k, -1) if j % 7 == 4 else rows)
                for j, (t, rows) in enumerate(group)
            ]
            for v, group in c_by_value.items()
        }
        planted = (planted_bs, planted_cs)
        monkeypatch.setattr(inequalities, "_split_universe", lambda kk, cc: planted)
        expected = _lemma_triple_loop(k, amax, planted)
        assert {v[3] for v in expected["violations"]} == {"inequality", "propagation"}
        assert {v[4] for v in expected["violations"] if v[3] == "inequality"} >= {1, k}
        b_value = {t: rows[0] for t, rows in planted_bs}
        ranges = set()
        for a_terms, b_terms, *_ in expected["violations"]:
            group = [t for t, rows in planted_bs if rows[0] == b_value[b_terms]]
            whole = tuple(x - 1 for x in a_terms) <= group[0]
            ranges.add("whole group" if whole else "lex boundary")
        assert ranges == {"whole group", "lex boundary"}
        assert lemma_sweep(k, amax) == expected


def _column_bounds(rows):
    """Column minima, and column maxima over the rows at the level-1 minimum."""
    minima = tuple(min(column) for column in zip(*rows))
    return minima, tuple(max(column) for column in zip(*(r for r in rows if r[1] == minima[1])))


def _scalar_unsettled(a_rows, c_bounds, v, b_bound, positions):
    """The positions whose block lemma_sweep's bounds leave open, decided by
    the three tests one comparison at a time: the floors (strict at level
    1), tightness at level 1 and the propagation tops."""
    b_min, b_top = b_bound
    out = []
    for p in positions:
        a, (c_min, c_top) = a_rows[p], c_bounds[p + 1 - v]
        floors = all(a[i] <= b_min[i] + c_min[i] for i in range(1, len(a)))
        below = a[1] < b_min[1] + c_min[1]
        tops = all(b_top[i] + c_top[i] <= a[i] for i in range(2, len(a)))
        if not (floors and (below or tops)):
            out.append(p)
    return out


def test_block_certifier_matches_scalar_tests():
    # lemma_sweep's packed certificate against the scalar tests at every
    # (b value, cascade) pair a b value reaches, past its whole-group range
    # too: on the rows of lemma_sweep(k, 10), and on the same rows scaled
    # past 2^16 and shifted below 0 (a by twice the shift of b and c, so
    # every comparison keeps its outcome), then some entries moved by one
    # so that ties at level 1 and at the last level break both ways; and on
    # rows of +-M alone, where a field must hold c + b - a = +-3M
    scale, shift = 2**17 + 3, 2**18
    for k in range(2, 6):
        cap = _lemma_cap(k, 10)
        bs, c_by_value = inequalities._split_universe(k, cap)
        b_groups = {}
        for _t, rows in bs:
            b_groups.setdefault(rows[0], []).append(rows)
        real = (
            [rows for _t, rows in inequalities._cascade_rows(k, cap)],
            [_column_bounds([rows for _t, rows in c_by_value[w]]) for w in range(cap + 1)],
            {v: _column_bounds(group) for v, group in b_groups.items()},
        )

        def planted(row, lowered, p, nudges):
            out = [row[0]] + [scale * x - lowered for x in row[1:]]
            for i, d in nudges.get(p % 5, ()):
                out[i] += d
            return tuple(out)

        a_nudges = {1: [(1, 1)], 2: [(1, -1)], 3: [(k, -1)]}
        c_nudges = {4: [(1, -1), (k, 1)]}
        scaled = (
            [planted(row, 2 * shift, p, a_nudges) for p, row in enumerate(real[0])],
            [tuple(planted(r, shift, w, c_nudges) for r in two) for w, two in enumerate(real[1])],
            {v: tuple(planted(b, shift, v, {}) for b in pair) for v, pair in real[2].items()},
        )
        assert min(map(min, scaled[0])) < 0 and max(map(max, scaled[0])) > 2**16

        def extreme(row, j):  # every entry past the value at +-(2^22 + 1)
            signs = (-1 if (j + 2 * i) % 7 == 0 else 1 for i in range(1, k + 1))
            return (row[0],) + tuple((2**22 + 1) * sign for sign in signs)

        widest = (  # c + b - a reaches +-3 (2^22 + 1), past a field of 3 bytes
            [extreme(row, p) for p, row in enumerate(real[0])],
            [tuple(extreme(r, w + 1) for r in two) for w, two in enumerate(real[1])],
            {v: tuple(extreme(r, v + 2) for r in two) for v, two in real[2].items()},
        )
        for a_rows, c_bounds, b_bounds in (real, scaled, widest):
            unsettled = inequalities._block_certifier(a_rows, c_bounds, list(b_bounds.values()))
            flagged = 0
            for v, bound in b_bounds.items():
                positions = range(max(v, 1) - 1, cap)
                expected = _scalar_unsettled(a_rows, c_bounds, v, bound, positions)
                got = list(unsettled(v, positions.start, positions.stop, bound))
                assert got == expected, (k, v)
                flagged += len(got)
            assert 0 < flagged < sum(cap + 1 - max(v, 1) for v in b_bounds), k


def test_general_level_sweep_fallback_matches_triple_loop(monkeypatch):
    # planted rows fail the certificate of some blocks, on the value one
    # level down (row[1]) and on the (1, 1)-shifted value (the alternating
    # sum of row[1:]), where both left-hand sides must be checked triple by
    # triple; swapped values make the blocks' order differ from the
    # enumeration's.  The triple loop takes its left-hand sides from
    # seq_value and seq_shift, less the planted amounts
    real_admissible = inequalities._admissible

    def lowered(terms):
        # what the plant takes off the value one level down and off the shifted value
        return int(sum(terms) % 6 == 2), int(sum(terms) % 4 == 1)

    def planted_row(terms, row):
        down, shifted = lowered(terms)
        return row[:1] + (row[1] - down, row[2] + shifted - down) + row[3:]

    def planted_admissible(level, cap, depth):
        return _swapped_values(
            [(t, planted_row(t, row)) for t, row in real_admissible(level, cap, depth)],
            lambda entry: entry[1][0],
            lambda entry, v: (entry[0], (v,) + entry[1][1:]),
        )

    def sides(terms, level):
        down, shifted = lowered(terms)
        s = Seq(terms, level)
        return seq_value(s, level - 1) - down, seq_shift(s, 1, 1, level) - shifted

    for k, amax, shift in ((2, 6, 2), (3, 6, 1)):
        cap = _lemma_cap(k, amax)
        planted_as = [(t, planted_row(t, row)) for t, row in inequalities._cascade_rows(k, cap)]
        levels = range(k, k + shift + 1)
        entries = {level: planted_admissible(level, cap, level) for level in levels}
        for level in levels:  # values no longer grow with tuple order
            values = [row[0] for _t, row in entries[level]]
            assert values != sorted(values)
        checked = 0
        violations = []
        failed_sides = set()
        for k1 in levels:
            for k2 in levels:
                for a_terms in _cascade_terms(k, amax):
                    m = seq_value(Seq(a_terms, k), k)
                    lhs, s_lhs = sides(a_terms, k)
                    for b_terms, (b_val, *_) in entries[k1]:
                        b_down, b_shift = sides(b_terms, k1)
                        for c_terms, (c_val, *_) in entries[k2]:
                            if b_val + c_val != m:
                                continue
                            checked += 1
                            c_down, c_shift = sides(c_terms, k2)
                            failed = (lhs > b_down + c_down, s_lhs > b_shift + c_shift)
                            if any(failed):
                                violations.append((a_terms, b_terms, c_terms, k1, k2))
                                failed_sides.add(failed)
        # some triples fail on the value one level down only, some on the shifted value only
        assert {(True, False), (False, True)} <= failed_sides
        with monkeypatch.context() as patch:
            patch.setattr(inequalities, "_cascade_rows", lambda kk, cc: planted_as)
            patch.setattr(inequalities, "_admissible", planted_admissible)
            got = general_level_sweep(k, amax, kmax_shift=shift)
        assert violations and got == {"checked": checked, "violations": violations}


def _admissible_terms(level, cap):
    """Every sequence admissible at level of value at most cap, by brute
    force over the decreasing tuples of at most level + 1 terms: the
    independent oracle for the sequences ``_admissible`` enumerates."""
    top = 0
    while seq_value(Seq((top + 1,), level), level) <= cap:
        top += 1
    return [
        terms
        for length in range(level + 2)
        for terms in combinations(range(top, -1, -1), length)
        if all(x >= level - j - 1 for j, x in enumerate(terms))
        and seq_value(Seq(terms, level), level) <= cap
    ]


def test_level_floors_match_double_loop():
    # the floor at m is the least sum of one left-hand side over every pair
    # of admissible sequences, at any two of the sweep's levels, whose
    # values add up to m; here from a plain double loop over those pairs
    # with seq_value and seq_shift.  The sweep certifies a cascade of value
    # m with two comparisons against these lists
    for k, amax, shift in ((2, 6, 2), (3, 6, 1), (1, 5, 1)):
        cap = _lemma_cap(k, amax)
        levels = range(k, k + shift + 1)
        sides = [
            (
                seq_value(Seq(t, level), level),
                seq_value(Seq(t, level), level - 1),
                seq_shift(Seq(t, level), 1, 1, level),
            )
            for level in levels
            for t in _admissible_terms(level, cap)
        ]
        down = [None] * (cap + 1)
        shifted = [None] * (cap + 1)
        for b_val, b_down, b_shift in sides:
            for c_val, c_down, c_shift in sides:
                m = b_val + c_val
                if m > cap:
                    continue
                if down[m] is None or b_down + c_down < down[m]:
                    down[m] = b_down + c_down
                if shifted[m] is None or b_shift + c_shift < shifted[m]:
                    shifted[m] = b_shift + c_shift
        _groups, floors = inequalities._level_floors(levels, cap)
        assert floors == [down, shifted], (k, amax, shift)


def test_split_sweeps_refuse_an_enumeration_over_budget():
    # the largest pinned scale, amax 16 at k = 5, lists levels 4..7 at cap
    # C(17, 5) - 1 within the budget; level 1 at the cap of lemma_sweep(2, 40)
    # is refused before any sequence is listed
    for level in range(4, 8):
        assert inequalities._admissible(level, _lemma_cap(5, 16))
    with pytest.raises(BudgetError, match="split budget of 100000"):
        lemma_sweep(2, 40)
    with pytest.raises(BudgetError, match="split budget"):
        splits_comparison(60, 6)


def test_split_sweep_reports_are_pinned():
    # sha256 of the JSON reports, taken before the packed certificate and
    # the memoized binomials: lemma_sweep(k, 10) for k = 2..5, the three
    # general_level_sweep scales of the split-sweeps benchmark, and
    # splits_comparison(8, 5)
    def digest(report):
        return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]

    lemma = {
        2: "19f6eeb6e42581cd",
        3: "842ae7c6bf221490",
        4: "fc64870cb7b0b758",
        5: "46047f177f983784",
    }
    for k, expected in lemma.items():
        assert digest(lemma_sweep(k, 10)) == expected, k
    general = {
        (2, 10, 3): "7ecae8898cd2c897",
        (3, 8, 2): "7f2580ebd6ac1553",
        (5, 8, 1): "d550a30b7423cc3a",
    }
    for (k, amax, shift), expected in general.items():
        assert digest(general_level_sweep(k, amax, kmax_shift=shift)) == expected, (k, amax)
    assert digest(splits_comparison(8, 5)) == "d3434abb704c656a"


def test_split_universe_rows_are_split_profiles():
    # splits_comparison and lemma_sweep read the profiles from the row
    # vectors the enumerator sums as it descends; at every cap that
    # splits_comparison(8, 5) and lemma_sweep(k, 10) build they must be
    # split_profile's values for b and for c, and the cascade rows the
    # cascades' values at levels k..0.  general_level_sweep reads the
    # (1, 1)-shifted value as the alternating sum of row[1:]; at the levels
    # and caps of its benchmark scales that must be seq_shift's value
    for k in range(2, 6):
        cascades = [
            Seq(t, k) for t in _cascade_terms(k, 8) if len(t) < k
        ]
        for cap in (max(seq_value(a, k) for a in cascades), _lemma_cap(k, 10)):
            bs, c_by_value = inequalities._split_universe(k, cap)
            for terms, rows in bs:
                assert rows == split_profile(Seq(terms, k), EMPTY, k)[0], (k, cap, terms)
            for value, group in c_by_value.items():
                for terms, rows in group:
                    assert rows == split_profile(EMPTY, Seq(terms, k - 1), k)[1], (k, cap, terms)
                    assert rows[0] == value
        cascade_rows = inequalities._cascade_rows(k, _lemma_cap(k, 10))
        assert [terms for terms, _ in cascade_rows] == sorted(_cascade_terms(k, 10))
        for terms, rows in cascade_rows:
            assert rows == tuple(seq_value(Seq(terms, k), k - i) for i in range(k + 1)), terms
    for k, amax, shift in ((2, 10, 3), (3, 8, 2), (5, 8, 1)):
        for level in range(k, k + shift + 1):
            for terms, rows in inequalities._admissible(level, _lemma_cap(k, amax), level):
                alternating = sum(rows[1::2]) - sum(rows[2::2])
                assert alternating == seq_shift(Seq(terms, level), 1, 1, level), (level, terms)
