"""Identity engine: invariance decision procedure, walls, and reduction."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations, product

import pytest

from shadowlab.exact import Seq, binom, seq_value
from shadowlab.identities import (
    BinomialSum,
    NotReducibleError,
    Pavement,
    Rubble,
    Wall,
    diagonal_difference,
    dominates,
    is_invariantly_zero,
    is_zero_on_grid,
    recursive_reduce,
    vertical_difference,
)


def test_translate_identity():
    s = BinomialSum.term(1, 0)
    assert s.translate(0, 0) == s


def test_translate_pascal_difference_is_zero_everywhere():
    diff = (
        BinomialSum.term(6, 3)
        - BinomialSum.term(5, 3)
        - BinomialSum.term(5, 2)
    )
    for r, t in product(range(-4, 9), repeat=2):
        assert diff.translate(r, t).evaluate() == 0


def test_translate_witness_for_hidden_coefficient():
    # C(1,0) = C(0,0) holds pointwise but fails after one downward slide
    s = BinomialSum({(1, 0): 1, (0, 0): -1})
    assert s.evaluate() == 0
    assert s.translate(0, 1).evaluate() == binom(1, 1) - binom(0, 1) == 1


def test_is_invariantly_zero_examples():
    hidden = BinomialSum({(1, 0): 1, (0, 0): -1, (0, -1): -1})
    assert is_invariantly_zero(hidden)
    assert not is_invariantly_zero(BinomialSum({(1, 0): 1, (0, 0): -1}))
    assert is_invariantly_zero(BinomialSum())
    assert is_invariantly_zero(vertical_difference(6, 3, 3))
    assert is_zero_on_grid(vertical_difference(6, 3, 3))


def test_diagonal_and_vertical_identities_windows():
    for n in range(0, 13):
        for k in range(0, 7):
            for i in range(1, 6):
                assert is_invariantly_zero(diagonal_difference(n, k, i))
                assert is_invariantly_zero(vertical_difference(n, k, i))


def test_invariance_matches_grid_oracle_on_random_sums():
    rng = random.Random(20240611)
    agree_both_ways = 0
    for _ in range(300):
        n_terms = rng.randint(1, 6)
        s = BinomialSum(
            ((rng.randint(-2, 9), rng.randint(-2, 7)), rng.choice((-2, -1, 1, 2)))
            for _ in range(n_terms)
        )
        invariant = is_invariantly_zero(s)
        if invariant:
            assert is_zero_on_grid(s)
        # converse holds on the window for sums supported in [-10, 15]^2
        if is_zero_on_grid(s):
            assert invariant
            agree_both_ways += 1
    # some generated sums should actually exercise the zero branch
    zero = vertical_difference(5, 2, 2)
    assert is_zero_on_grid(zero) and is_invariantly_zero(zero)


def test_wall_expand_examples():
    assert Wall((2,), 3).expand() == BinomialSum.term(5, 2)
    assert Wall((2, 2), 3).expand() == BinomialSum({(5, 2): 1, (4, 2): 1})
    empty = Wall((), 0)
    assert not empty.expand()
    assert empty.expand().evaluate() == 0


def test_wall_validation():
    with pytest.raises(ValueError):
        Wall((1, 2), 3)  # increasing
    with pytest.raises(ValueError):
        Wall((2, 2, 2), 1)  # height above level


def test_rubble_and_pavement_translation():
    r = Rubble((3, 5, 5))
    assert r.evaluate() == 3
    assert r.to_sum().evaluate() == 3
    assert r.to_sum().translate(0, -1).evaluate() == 0
    p = Pavement((1, 2, 4))
    assert p.to_sum().evaluate() == 0
    lowered = p.to_sum().translate(0, -1)
    assert lowered.evaluate() == 3  # every C(i-1, i-1) = 1
    assert lowered.evaluate() >= 0
    with pytest.raises(ValueError):
        Pavement((0,))
    with pytest.raises(ValueError):
        Rubble((-1,))


def test_dominates_examples():
    assert dominates(Wall((2,), 3), Seq((5,), 3), 3)
    assert not dominates(Wall((2,), 1), Seq((5,), 3), 3)
    assert dominates(Wall((1, 1), 2), Seq((), 3), 3)


def _corpus_sequences(k):
    """Strictly decreasing tuples of at most k terms from 0..k+4."""
    return [
        t for length in range(k + 1) for t in combinations(range(k + 4, -1, -1), length)
    ]


def _corpus_walls(k, level):
    """Nonincreasing walls of 1..level+1 columns, each column in 1..k+1."""
    return [
        w
        for h in range(level + 1)
        for w in product(range(k + 1, 0, -1), repeat=h + 1)
        if list(w) == sorted(w, reverse=True)
    ]


def test_domination_slack_matches_its_oracle():
    # the one domination test: (D2) fails once a term of the expression in
    # the column of a wall point reaches that point's upper index (slack 0,
    # ``dominates``) or passes it (slack 1, the reduction's entry check)
    from shadowlab.identities import _dominated

    for k in (1, 2, 3):
        seqs = _corpus_sequences(k)
        for level in range(5):
            for w in _corpus_walls(k, level):
                wall = Wall(w, level)
                for terms in seqs:
                    for slack in (0, 1):
                        expected = not terms or (
                            terms[0] - k <= level  # (D1)
                            and w[0] <= k  # (D3)
                            and all(  # (D2)
                                terms[k - l] < u + slack
                                for u, l in wall.points()
                                if 0 <= k - l < len(terms)
                            )
                        )
                        assert _dominated(wall, terms, k, slack) == expected, (
                            w, level, terms, k, slack
                        )
                    assert dominates(wall, Seq(terms, k), k) == _dominated(wall, terms, k, 0)


def check_outcome(wall, b, c, k, outcome):
    seq_diff = (
        BinomialSum.from_seq(b, k)
        + BinomialSum.from_seq(c, k)
        - BinomialSum.from_seq(outcome.b_out, k)
        - BinomialSum.from_seq(outcome.c_out, k)
        - outcome.pavement.to_sum()
        - outcome.shared
    )
    wall_diff = (
        wall.expand()
        - outcome.wall_out.expand()
        - outcome.rubble.to_sum()
        - outcome.shared
    )
    assert is_invariantly_zero(seq_diff)
    assert is_invariantly_zero(wall_diff)
    assert is_zero_on_grid(seq_diff)
    assert is_zero_on_grid(wall_diff)
    assert outcome.wall_out.is_empty() or (
        not outcome.b_out.terms and not outcome.c_out.terms
    )
    # value conservation: pavement terms are exactly zero
    lhs = seq_value(b, k) + seq_value(c, k)
    rhs = (
        seq_value(outcome.b_out, k)
        + seq_value(outcome.c_out, k)
        + outcome.shared.evaluate()
    )
    assert lhs == rhs


def test_recursive_reduce_worked_instance():
    wall = Wall((1,), 1)
    b = Seq((2,), 1)
    c = Seq((), 1)
    outcome = recursive_reduce(wall, b, c, 1)
    check_outcome(wall, b, c, 1, outcome)
    assert outcome.wall_out.is_empty()
    assert not outcome.b_out.terms and not outcome.c_out.terms


def random_valid_instance(rng: random.Random):
    """Rejection-sample a strictly dominated (wall, b, c, k) instance."""
    while True:
        k = rng.randint(1, 4)
        ell = rng.randint(0, 7)
        h = rng.randint(0, min(ell, 4))
        w = tuple(sorted((rng.randint(1, k) for _ in range(h + 1)), reverse=True))
        wall = Wall(w, ell)
        b0_cap = min(9, k + ell)
        if b0_cap < k:
            continue
        length = rng.randint(1, k)
        terms: list[int] = []
        prev = b0_cap + 1
        ok = True
        for i in range(length):
            lo = k - i if i == length - 1 else k - i  # keep diagonals >= 0
            hi = prev - 1
            if hi < lo:
                ok = False
                break
            terms.append(rng.randint(lo, hi))
            prev = terms[-1]
        if not ok:
            continue
        b = Seq(tuple(terms), k)
        if not b.is_k_binomial(k):
            continue
        clen = rng.randint(0, len(terms))
        cterms: list[int] = []
        ok = True
        prev = 10**9
        for i in range(clen):
            lo = k - i
            hi = min(b.terms[i], prev - 1)
            if hi < lo:
                ok = False
                break
            cterms.append(rng.randint(lo, hi))
            prev = cterms[-1]
        if not ok:
            continue
        c = Seq(tuple(cterms), k)
        if cterms and not c.is_k_binomial(k):
            continue
        if not (dominates(wall, b, k) and dominates(wall, c, k)):
            continue
        return wall, b, c, k


def test_recursive_reduce_random_instances():
    rng = random.Random(20240612)
    for _ in range(50):
        wall, b, c, k = random_valid_instance(rng)
        outcome = recursive_reduce(wall, b, c, k)
        check_outcome(wall, b, c, k, outcome)
        # rubble and pavement keep their required term shapes
        assert all(x >= 0 for x in outcome.rubble.uppers)
        assert all(i >= 1 for i in outcome.pavement.columns)


def test_recursive_reduce_wide_fuzz():
    rng = random.Random(987654)
    kinds = {"wall_empty": 0, "b_empty": 0, "both": 0}
    count = 0
    while count < 300:
        wall, b, c, k = random_wide_instance(rng)
        outcome = recursive_reduce(wall, b, c, k)
        check_outcome(wall, b, c, k, outcome)
        count += 1
        we = outcome.wall_out.is_empty()
        be = not outcome.b_out.terms
        kinds["both" if (we and be) else "wall_empty" if we else "b_empty"] += 1
    # all three terminal shapes occur
    assert all(v > 0 for v in kinds.values()), kinds


def random_wide_instance(rng: random.Random):
    """Like random_valid_instance, with wider parameter ranges."""
    while True:
        k = rng.randint(1, 6)
        ell = rng.randint(0, 10)
        h = rng.randint(0, min(ell, 6))
        w = tuple(sorted((rng.randint(1, k) for _ in range(h + 1)), reverse=True))
        wall = Wall(w, ell)
        b0_cap = min(12, k + ell)
        if b0_cap < k:
            continue
        length = rng.randint(1, k)
        terms: list[int] = []
        prev = b0_cap + 1
        ok = True
        for i in range(length):
            lo, hi = k - i, prev - 1
            if hi < lo:
                ok = False
                break
            terms.append(rng.randint(lo, hi))
            prev = terms[-1]
        if not ok:
            continue
        b = Seq(tuple(terms), k)
        if not b.is_k_binomial(k):
            continue
        clen = rng.randint(0, len(terms))
        cterms: list[int] = []
        prev = 10**9
        for i in range(clen):
            lo, hi = k - i, min(b.terms[i], prev - 1)
            if hi < lo:
                ok = False
                break
            cterms.append(rng.randint(lo, hi))
            prev = cterms[-1]
        if not ok:
            continue
        c = Seq(tuple(cterms), k)
        if cterms and not c.is_k_binomial(k):
            continue
        if dominates(wall, b, k) and dominates(wall, c, k):
            return wall, b, c, k


def test_recursive_reduce_rejects_bad_inputs():
    with pytest.raises(ValueError):
        recursive_reduce(Wall((), 0), Seq((2,), 1), Seq((), 1), 1)
    with pytest.raises(ValueError):
        recursive_reduce(Wall((1,), 1), Seq((), 1), Seq((), 1), 1)
    with pytest.raises(ValueError):
        # c above b violates the max/min precondition
        recursive_reduce(Wall((1,), 2), Seq((3,), 2), Seq((3, 2), 2), 2)
    with pytest.raises(ValueError):
        # wall far below b: domination fails
        recursive_reduce(Wall((1,), 0), Seq((4,), 2), Seq((), 2), 2)


def _reduction_text(wall, b, c, k):
    """A reduction's outcome fields, or its exception type and message."""
    try:
        o = recursive_reduce(wall, b, c, k)
    except ValueError as exc:  # NotReducibleError is a ValueError
        return f"{type(exc).__name__}: {exc}"
    return repr((
        o.wall_out.w, o.wall_out.level, o.b_out.terms, o.c_out.terms,
        o.rubble.uppers, o.pavement.columns, o.shared.items(),
    ))


def test_recursive_reduce_domain_probe():
    # every input with k <= 2 and wall level <= 3 either reduces, raises
    # NotReducibleError, or is refused by an entry check; terms and wall
    # columns run one past what domination admits.  The counts and a digest
    # of every outcome are pinned
    outcomes = {"reduced": 0, "not_reducible": 0, "refused": 0}
    digest = hashlib.sha256()
    for k in (1, 2):
        seqs = _corpus_sequences(k)
        for level in range(4):
            for w, b, c in product(_corpus_walls(k, level), seqs, seqs):
                # recursive_reduce verifies both identities before returning
                text = _reduction_text(Wall(w, level), Seq(b, k), Seq(c, k), k)
                digest.update(f"{k} {level} {w} {b} {c} {text}\n".encode())
                if text.startswith("NotReducibleError: "):
                    outcomes["not_reducible"] += 1
                elif text.startswith("ValueError: "):
                    outcomes["refused"] += 1
                else:
                    outcomes["reduced"] += 1
    assert outcomes == {"reduced": 880, "not_reducible": 256, "refused": 54999}
    assert digest.hexdigest() == "3d44546b4c365b19b38302156dca63c61eea2a2d0bf19c1ee856696790e179d5"
