"""Exact arithmetic: oracle-backed unit tests and properties."""

from __future__ import annotations

import copy
import math
import pickle
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab.exact import (
    EMPTY,
    ExactOverflowError,
    Seq,
    binom,
    decompose,
    lex_cmp,
    seq_minus,
    seq_shift,
    seq_value,
)


def binom_oracle(n: int, k: int) -> int:
    """Independent falling-factorial evaluation via exact rationals."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    value = Fraction(num, math.factorial(k))
    assert value.denominator == 1
    return int(value)


def all_decompositions(limit: int, k: int) -> dict[int, list[tuple[int, ...]]]:
    """Every valid cascade sequence at level k with value <= limit, by value."""
    found: dict[int, list[tuple[int, ...]]] = {}

    def rec(prefix: list[int], j: int, value: int) -> None:
        if prefix:
            t = len(prefix) - 1
            if prefix[-1] >= k - t >= 1:
                found.setdefault(value, []).append(tuple(prefix))
        if j < 1 or len(prefix) >= k:
            return
        a = k - (k - j)  # smallest admissible term at this position
        a = max(j, 1)
        while True:
            term = binom(a, j)
            if prefix and a >= prefix[-1]:
                break
            if value + term > limit:
                break
            prefix.append(a)
            rec(prefix, j - 1, value + term)
            prefix.pop()
            a += 1
        return

    rec([], k, 0)
    return found


def test_binom_basics():
    assert binom(5, 3) == 10
    assert binom(5, 3) == binom(5, 2) == 10  # C(2n-1, n) = C(2n-1, n-1) at n=3
    assert binom(0, 0) == 1
    assert binom(7, -2) == 0
    assert binom(3, 5) == 0


def test_binom_negative_upper():
    assert binom(-10, 1) == -10
    assert binom(-10, 2) == 55
    assert binom(-1, 3) == -1
    assert binom(-42, 0) == 1


def test_binom_matches_falling_factorial_oracle():
    for n in range(-15, 16):
        for k in range(-3, 11):
            assert binom(n, k) == binom_oracle(n, k), (n, k)


def test_binom_overflow_checked():
    with pytest.raises(ExactOverflowError):
        binom(200, 100)
    # comfortably inside the range
    assert binom(120, 4) == binom_oracle(120, 4)


def test_binom_memo_keeps_the_uncached_behaviour():
    # binom is memoized with a finite size; a cached int argument does not
    # answer for an equal float, which still fails as math.comb fails, a
    # bool still counts as the int it is, and a refused value raises on
    # every call, as an error is never cached
    assert binom.cache_info().maxsize is not None
    assert binom(5, 2) == 10
    for n, k in ((5.0, 2), (5, 2.0)):
        with pytest.raises(TypeError):
            binom(n, k)
        with pytest.raises(TypeError):
            binom(n, k)
    assert binom(True, 1) == binom(5, True) - 4 == 1
    assert binom(1, 1) == 1
    for n, k in ((200, 100), (256, 128), (2**127, 1)):
        for _ in range(2):
            with pytest.raises(ExactOverflowError):
                binom(n, k)
    before = binom.cache_info()
    with pytest.raises(ExactOverflowError):
        binom(200, 100)
    after = binom.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 1, before.currsize)


def test_binom_matches_math_comb_at_the_overflow_edge():
    # binom returns C(n, k) exactly when it fits the signed 128-bit range.
    # Two windows per k: around the first n where k * C(n, k) passes
    # 2^127 - 1 (an old checked loop refused the values that fit there) and
    # around the first n where C(n, k) itself passes it
    top = 2**127 - 1

    def crossing(k: int, factor: int) -> int:
        n = k
        while factor * math.comb(n, k) <= top:
            n *= 2
        lo = k
        while n - lo > 1:  # the crossing lies in (lo, n]
            mid = (lo + n) // 2
            lo, n = (mid, n) if factor * math.comb(mid, k) <= top else (lo, mid)
        return n

    for k in range(1, 65):
        for n in (crossing(k, k), crossing(k, 1)):
            for x in range(max(n - 4, k), n + 5):
                for j in (k, x - k):
                    expected = math.comb(x, j)
                    if expected <= top:
                        assert binom(x, j) == expected, (x, j)
                    else:
                        with pytest.raises(ExactOverflowError, match="128-bit range"):
                            binom(x, j)
    # refused without computing the value: C(n, k') >= 2^k' and >= n
    for x, j in ((256, 128), (2**127, 1), (2**127, 2**127 - 1)):
        with pytest.raises(ExactOverflowError, match=rf"^C\({x}, "):
            binom(x, j)
    assert binom(2**128, 2**128) == binom(2**128, 0) == 1


def test_pascal_recurrence_window():
    for n in range(-20, 121):
        for k in range(-2, 13):
            assert binom(n, k) == binom(n - 1, k) + binom(n - 1, k - 1)


@given(st.integers(-60, 60), st.integers(-3, 12))
def test_pascal_recurrence_property(n, k):
    assert binom(n, k) == binom(n - 1, k) + binom(n - 1, k - 1)


def test_seq_value_examples():
    assert seq_value(Seq((4, 2), 3)) == 5
    assert seq_value(Seq((3, 2, -10), 3)) == -8
    assert seq_value(Seq((-10, -42), 2)) == 13
    # the two generalized pieces recombine to the plain value
    assert seq_value(Seq((3, 2, -10), 3)) + seq_value(Seq((-10, -42), 2)) == 5
    assert seq_value(EMPTY, 7) == 0


def test_seq_shift_examples():
    assert seq_shift(Seq((5, 2), 3), 1, 0) == binom(4, 3) + binom(1, 2) == 4
    s = Seq((6, 4, 1), 3)
    assert seq_shift(s, 0, 0) == seq_value(s)
    assert seq_shift(Seq((5, 4, 3, 2), 4), 1, 1) == 10


def test_seq_minus():
    assert seq_minus(Seq((5, 2, 1), 3), 1).terms == (4, 1, 0)
    assert seq_minus(Seq((), 0), 3).terms == ()
    a = Seq((5, 3), 3)
    lhs = seq_value(seq_minus(a, 1), 3) + seq_value(seq_minus(a, 1), 2)
    assert lhs == seq_value(a, 3) == 13
    assert seq_value(seq_minus(a, 1), 3) == 5
    assert seq_value(seq_minus(a, 1), 2) == 8


def test_decompose_examples():
    assert decompose(10, 3).terms == (5,)
    assert decompose(14, 4).terms == (5, 4, 3, 2)
    assert decompose(11, 3).terms == (5, 2)
    assert decompose(0, 5).terms == ()


def test_decompose_round_trip_at_the_top_of_the_range():
    m = 2**127 - 1
    assert decompose(m, 2).terms == (2**64, 2**63 - 1)  # C(2^64, 2) = 2^127 - 2^63
    for k in range(1, 9):
        s = decompose(m, k)
        assert s.is_k_binomial(k) and seq_value(s, k) == m, k


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        decompose(-1, 3)
    with pytest.raises(ValueError):
        decompose(5, 0)


def test_decompose_unique_against_exhaustive_search():
    for k in range(1, 6):
        table = all_decompositions(200, k)
        for m in range(1, 201):
            candidates = table.get(m, [])
            assert len(candidates) == 1, (m, k, candidates)
            assert decompose(m, k).terms == candidates[0]


def test_decompose_round_trip_dense_and_sampled():
    for k in range(1, 9):
        for m in range(0, 2001):
            s = decompose(m, k)
            assert s.is_k_binomial(k)
            assert seq_value(s, k) == m
    import random

    rng = random.Random(7)
    for k in range(1, 9):
        for _ in range(400):
            m = rng.randrange(0, 10**6 + 1)
            s = decompose(m, k)
            assert s.is_k_binomial(k) and seq_value(s, k) == m


@given(st.integers(0, 10**6), st.integers(1, 8))
@settings(max_examples=200)
def test_decompose_round_trip_property(m, k):
    s = decompose(m, k)
    assert s.is_k_binomial(k)
    assert seq_value(s, k) == m


def test_decompose_monotone_in_lex():
    for k in (2, 3, 5):
        prev = decompose(0, k)
        for m in range(1, 400):
            cur = decompose(m, k)
            assert lex_cmp(prev, cur) < 0
            prev = cur


def test_lex_cmp_rules():
    assert lex_cmp(Seq((5, 3), 3), Seq((5, 2, 1), 3)) > 0
    assert lex_cmp(Seq((4, 1), 3), Seq((4, 1, 0), 3)) < 0
    assert lex_cmp(EMPTY, Seq((0,), 1)) < 0
    assert lex_cmp(Seq((2, 1), 2), Seq((2, 1), 2)) == 0
    assert lex_cmp((3, 1), (3,)) > 0

    def by_rule(a, b):
        # the first differing entry decides, else the longer sequence wins
        for x, y in zip(a, b):
            if x != y:
                return -1 if x < y else 1
        return (len(a) > len(b)) - (len(a) < len(b))

    grid = [t for length in range(4) for t in product(range(-2, 5), repeat=length)]
    assert len(grid) == 400
    for a in grid:
        for b in grid:
            assert lex_cmp(a, b) == by_rule(a, b), (a, b)


def test_minus_one_redecomposition_property():
    # re-decomposing a value at a lower level keeps the next level's value,
    # plain and shifted variants
    for k in range(2, 7):
        seen = set()
        for m in range(1, binom(12, k) + 1):
            b = decompose(m, k)
            if b.terms in seen or (b.terms and b.terms[0] > 12):
                continue
            seen.add(b.terms)
            for i in range(1, k):
                bi = decompose(seq_value(b, k - i), k - i)
                assert seq_value(bi, k - i - 1) == seq_value(b, k - i - 1)
                shifted = seq_shift(b, i, i, k)
                if shifted < 0:
                    continue
                bip = decompose(shifted, k - i)
                assert seq_value(seq_minus(bip, 1), k - i - 1) == seq_shift(
                    b, i + 1, i + 1, k
                )


def test_seq_predicates():
    assert Seq((5, 3, 1), 3).is_strictly_decreasing()
    assert not Seq((5, 5), 3).is_strictly_decreasing()
    assert Seq((5, 0), 3).is_nonneg()
    assert not Seq((5, -1), 3).is_nonneg()
    assert Seq((5, 2), 3).is_k_binomial()
    assert not Seq((5, 2, 1, 0), 3).is_k_binomial(3)  # too long
    assert not Seq((5, 1), 3).is_k_binomial(3)  # last term below its index
    assert EMPTY.is_k_binomial(4)


def test_seq_is_an_immutable_value():
    s = Seq([3, 2], 3)
    assert s.terms == (3, 2) and isinstance(s.terms, tuple)
    assert repr(s) == "Seq(terms=(3, 2), level=3)"
    assert s == Seq((3, 2), 3) and hash(s) == hash(Seq((3, 2), 3))
    assert s != Seq((3, 2), 2) and s != Seq((3,), 3) and s != (3, 2)
    assert len({s, Seq((3, 2), 3), Seq(terms=(3, 2), level=2)}) == 2
    for name, value in (("terms", (1,)), ("level", 1), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(s, name, value)
    with pytest.raises(AttributeError):
        del s.level
    assert s == Seq((3, 2), 3)
    assert copy.deepcopy(s) == s and pickle.loads(pickle.dumps(s)) == s
    with pytest.raises(ValueError, match="level must be nonnegative"):
        Seq((1,), -1)
