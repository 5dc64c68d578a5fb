"""Exact arithmetic: generalized binomials, sequence sums, cascade decompositions.

Every quantity is a plain Python int, but all entry points funnel results
through a signed 128-bit range check so an overflow is an explicit error
instead of a silently huge number.
"""

from __future__ import annotations

import math
from functools import lru_cache

INT128_MAX = 2**127 - 1
INT128_MIN = -(2**127)
# distinct (n, k) arguments ``binom`` memoizes: the split sweeps ask for a few
# hundred, so the memo fills only on requests such as the decomposition of a
# large m, which then drop the least recently used
_BINOM_MEMO = 4096


class ExactOverflowError(OverflowError):
    """A checked operation left the signed 128-bit range."""


class BudgetError(RuntimeError):
    """A search or enumeration exceeded its configured budget."""


def _checked(value: int) -> int:
    if not INT128_MIN <= value <= INT128_MAX:
        raise ExactOverflowError(f"{value} exceeds the signed 128-bit range")
    return value


@lru_cache(maxsize=_BINOM_MEMO, typed=True)
def binom(n: int, k: int) -> int:
    """Generalized binomial coefficient over the integers.

    Conventions: C(n, k) = 0 for k < 0 and C(0, 0) = 1.  For n < 0 the
    falling-factorial extension applies, e.g. C(-10, 2) = 55.

    Memoized on the last ``_BINOM_MEMO`` arguments, keyed by their types as
    well, so a float argument still fails as it does uncached; a refused
    value raises on every call, as errors are never memoized.
    """
    value = _unchecked_binom(n, k)
    if -INT128_MAX <= value <= INT128_MAX:
        return value
    # |C(n, k)| for n < 0 is the value of its mirror C(k - n - 1, k)
    raise ExactOverflowError(f"{abs(value)} exceeds the signed 128-bit range")


def _unchecked_binom(n: int, k: int) -> int:
    """``binom`` without the range check on its value, for a caller that only
    compares the value with 0; it still refuses the terms whose work is
    unbounded."""
    if k < 0:
        return 0
    if k == 0:
        return 1
    if n < 0:
        mirrored = _unchecked_binom(k - n - 1, k)
        return -mirrored if k % 2 else mirrored
    if k > n:
        return 0
    k = min(k, n - k)
    # C(n, k) >= n for k >= 1, and C(n, k) >= 2^k since k <= n / 2, so
    # n > INT128_MAX and k >= 128 are refused before math.comb does the work
    if k >= 128 or (k and n > INT128_MAX):
        raise ExactOverflowError(f"C({n}, {k}) exceeds the signed 128-bit range")
    return math.comb(n, k)


class Seq:
    """Integer sequence (a_0, ..., a_t) anchored at a level k.

    Evaluated at level j it means C(a_0, j) + C(a_1, j-1) + ... ; the stored
    level is the anchor the sequence was built for (a cascade decomposition
    at level k, say) and is the default evaluation level.

    Immutable, and equal and hashed by (terms, level).  A plain class rather
    than a frozen dataclass, so importing this module, as every CLI request
    does, does not load ``dataclasses`` and the modules it imports.
    """

    __slots__ = ("terms", "level")
    terms: tuple[int, ...]
    level: int

    def __init__(self, terms, level: int) -> None:
        if level < 0:
            raise ValueError("level must be nonnegative")
        object.__setattr__(self, "terms", terms if isinstance(terms, tuple) else tuple(terms))
        object.__setattr__(self, "level", level)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.terms, self.level) == (other.terms, other.level)

    def __hash__(self) -> int:
        return hash((self.terms, self.level))

    def __repr__(self) -> str:
        return f"Seq(terms={self.terms!r}, level={self.level!r})"

    def __reduce__(self):
        return Seq, (self.terms, self.level)

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_strictly_decreasing(self) -> bool:
        return all(a > b for a, b in zip(self.terms, self.terms[1:]))

    def is_nonneg(self) -> bool:
        return all(a >= 0 for a in self.terms)

    def is_k_binomial(self, k: int | None = None) -> bool:
        """True iff this is a valid cascade decomposition at level k."""
        k = self.level if k is None else k
        if not self.terms:
            return True
        t = len(self.terms) - 1
        if t + 1 > k:
            return False
        if not self.is_strictly_decreasing():
            return False
        return self.terms[-1] >= k - t >= 1


EMPTY = Seq((), 0)


def seq_value(s: Seq, level: int | None = None) -> int:
    """Evaluate C(a_0, level) + C(a_1, level-1) + ...; empty sequence gives 0."""
    level = s.level if level is None else level
    return _checked(sum(map(binom, s.terms, range(level, level - len(s.terms), -1))))


def seq_shift(s: Seq, i: int, j: int, level: int | None = None) -> int:
    """Evaluate the shifted sum C(a_0 - i, level - j) + C(a_1 - i, level - j - 1) + ..."""
    level = s.level if level is None else level
    return _checked(sum(binom(a - i, level - j - r) for r, a in enumerate(s.terms)))


def seq_minus(s: Seq, d: int) -> Seq:
    """Decrease every term by d; length and anchor level are unchanged."""
    return Seq(tuple(a - d for a in s.terms), s.level)


def lex_cmp(a: Seq | tuple[int, ...], b: Seq | tuple[int, ...]) -> int:
    """Lexicographic comparison; on a prefix tie the longer sequence is greater.

    Returns a negative, zero, or positive int.  The empty sequence is the
    minimum.
    """
    ta = a.terms if isinstance(a, Seq) else tuple(a)
    tb = b.terms if isinstance(b, Seq) else tuple(b)
    return (ta > tb) - (ta < tb)


def decompose(m: int, k: int) -> Seq:
    """Greedy cascade decomposition of m >= 0 at level k >= 1.

    Returns the unique Seq with strictly decreasing terms, length <= k and
    last term >= its own lower index, summing to m; 0 decomposes to the
    empty sequence.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    if m < 0:
        raise ValueError("cannot decompose a negative integer")
    _checked(m)
    def fits(a: int, j: int, rem: int) -> bool:
        try:
            return binom(a, j) <= rem
        except ExactOverflowError:
            return False

    terms: list[int] = []
    rem = m
    j = k
    while rem > 0:
        # largest a with C(a, j) <= rem, by doubling then bisection
        lo = j
        hi = j + 1
        while fits(hi, j, rem):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fits(mid, j, rem):
                lo = mid
            else:
                hi = mid
        terms.append(lo)
        rem -= binom(lo, j)
        j -= 1
    seq = Seq(tuple(terms), k)
    if not (seq.is_k_binomial(k) and seq_value(seq, k) == m):
        raise RuntimeError(f"greedy decomposition of {m} at level {k} is not a cascade")
    return seq


def kk_bound(m: int, k: int, i: int = 1) -> int:
    """Lower bound for the i-iterated shadow of any m-member k-family."""
    if m < 0:
        raise ValueError("family size must be nonnegative")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= i <= k - 1:
        raise ValueError("iteration out of range")
    if i == 0:
        return m
    return seq_value(decompose(m, k), k - i)
