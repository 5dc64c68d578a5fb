"""Formal binomial sums, translation invariance, and the wall reduction engine.

A formal sum is a sparse integer-coefficient map over lattice points
(upper, lower), one point per binomial coefficient C(upper, lower).  An
identity of such sums is *invariant* when it stays true under every
simultaneous shift of all upper and all lower indices; ``is_invariantly_zero``
decides that exactly by Pascal-normalizing every term down to the minimum
upper index and checking that all coefficients cancel.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import product
from math import comb

from .exact import BudgetError, Seq, _checked, _unchecked_binom, binom

# empirical invariance window used by grid cross-checks; wide enough to expose
# every hidden term of the desk-scale sums exercised here
GRID_LO = -4
GRID_HI = 8
REWRITE_BUDGET = 1_000_000  # Pascal rewrites one invariance decision may make

Point = tuple[int, int]


class NotReducibleError(ValueError):
    """The pair passes the entry checks of ``recursive_reduce`` but the
    reduction reaches a collision it cannot resolve; only weakly dominated
    inputs do."""


class BinomialSum:
    """Sparse integer-coefficient sum of binomial coefficients C(upper, lower)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[Point, int] | Iterable[tuple[Point, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[Point, int] = {}
        for (upper, lower), c in items:
            if not c:
                continue
            key = (int(upper), int(lower))
            new = acc.get(key, 0) + c
            if new:
                acc[key] = new
            else:
                del acc[key]
        self._coeffs = acc

    @classmethod
    def term(cls, upper: int, lower: int, coeff: int = 1) -> "BinomialSum":
        return cls({(upper, lower): coeff})

    @classmethod
    def from_seq(cls, s: Seq, level: int | None = None) -> "BinomialSum":
        """Formal expansion C(a_0, level) + C(a_1, level-1) + ... of a sequence."""
        level = s.level if level is None else level
        out = cls.__new__(cls)
        # the lower indices differ, so every term is a point of its own
        out._coeffs = {(int(a), level - i): 1 for i, a in enumerate(s.terms)}
        return out

    def items(self) -> list[tuple[Point, int]]:
        return sorted(self._coeffs.items())

    def coefficient(self, upper: int, lower: int) -> int:
        return self._coeffs.get((upper, lower), 0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BinomialSum) and self._coeffs == other._coeffs

    def __add__(self, other: "BinomialSum") -> "BinomialSum":
        return self._copy()._accumulate(other, 1)

    def __neg__(self) -> "BinomialSum":
        out = BinomialSum.__new__(BinomialSum)
        out._coeffs = {key: -c for key, c in self._coeffs.items()}
        return out

    def __sub__(self, other: "BinomialSum") -> "BinomialSum":
        return self._copy()._accumulate(other, -1)

    def _copy(self) -> "BinomialSum":
        out = BinomialSum.__new__(BinomialSum)
        out._coeffs = dict(self._coeffs)
        return out

    def _accumulate(self, other: "BinomialSum", sign: int) -> "BinomialSum":
        """Add sign * other into this sum in place and return it; only for a
        sum that nothing else holds yet."""
        acc = self._coeffs
        for key, c in other._coeffs.items():
            new = acc.get(key, 0) + sign * c
            if new:
                acc[key] = new
            else:
                acc.pop(key, None)
        return self

    def __repr__(self) -> str:
        if not self._coeffs:
            return "BinomialSum(0)"
        bits = [f"{c:+d}*C({u},{l})" for (u, l), c in self.items()]
        return "BinomialSum(" + " ".join(bits) + ")"

    def evaluate(self) -> int:
        return _checked(sum(c * binom(u, l) for (u, l), c in self._coeffs.items()))

    def translate(self, r: int, slide: int) -> "BinomialSum":
        """Shift every upper index by r and every lower index by slide."""
        out = BinomialSum.__new__(BinomialSum)
        out._coeffs = {(u + r, l + slide): c for (u, l), c in self._coeffs.items()}
        return out


def is_invariantly_zero(s: BinomialSum) -> bool:
    """Decide whether s is zero as a translation-invariant identity.

    Every term with upper index above the minimum present is rewritten with
    the Pascal step C(n, k) -> C(n-1, k) + C(n-1, k-1) until all terms sit on
    one upper index; the sum is invariantly zero iff everything cancelled.
    A row of r terms costs r rewrites, so an upper span of s may cost about
    s^2 / 2; past ``REWRITE_BUDGET`` it raises ``BudgetError``.
    """
    coeffs = dict(s._coeffs)
    if not coeffs:
        return True
    floor = min(u for (u, _l) in coeffs)
    top = max(u for (u, _l) in coeffs)
    rewrites = 0
    for u in range(top, floor, -1):
        row = [(key, c) for key, c in coeffs.items() if key[0] == u]
        rewrites += len(row)
        if rewrites > REWRITE_BUDGET:
            raise BudgetError(
                f"invariance check passes the budget of {REWRITE_BUDGET} Pascal rewrites "
                f"at upper index {u}: {top - u} of {top - floor} rows walked, "
                f"{u - floor} left"
            )
        for (uu, l), c in row:
            del coeffs[(uu, l)]
            for key in ((u - 1, l), (u - 1, l - 1)):
                new = coeffs.get(key, 0) + c
                if new:
                    coeffs[key] = new
                else:
                    coeffs.pop(key, None)
    return not coeffs


def is_zero_on_grid(s: BinomialSum) -> bool:
    """Empirical cross-check: evaluate every translate on the
    [GRID_LO, GRID_HI]^2 grid.

    The translates are summed exactly, since each is only compared with 0:
    a value past the signed 128-bit range is no error here.  A term that
    ``binom`` refuses before computing it (lower index 128 or more, upper
    index past the range) still raises ``ExactOverflowError``.
    """
    return all(
        sum(c * _unchecked_binom(u, l) for (u, l), c in s.translate(r, t)._coeffs.items()) == 0
        for r, t in product(range(GRID_LO, GRID_HI + 1), repeat=2)
    )


def diagonal_difference(n: int, k: int, i: int) -> BinomialSum:
    """C(n,k) minus its i-step expansion along the diagonal; invariantly zero."""
    if i < 1:
        raise ValueError("need i >= 1")
    rhs = [((n - s, k - s + 1), 1) for s in range(1, i + 1)]
    rhs.append(((n - i, k - i), 1))
    return BinomialSum.term(n, k) - BinomialSum(rhs)


def vertical_difference(n: int, k: int, i: int) -> BinomialSum:
    """C(n,k) minus its i-step expansion down the column; invariantly zero."""
    if i < 1:
        raise ValueError("need i >= 1")
    rhs = [((n - s, k - 1), 1) for s in range(1, i + 1)]
    rhs.append(((n - i, k), 1))
    return BinomialSum.term(n, k) - BinomialSum(rhs)


@dataclass(frozen=True)
class Wall:
    """Nonincreasing sequence w with a level; expands to sum C(w_i + level - i, w_i).

    The expansion has exactly one term on each of the consecutive diagonals
    level - h ... level.  The empty wall is Wall((), 0).
    """

    w: tuple[int, ...]
    level: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.w, tuple):
            object.__setattr__(self, "w", tuple(self.w))
        if self.level < 0:
            raise ValueError("wall level must be nonnegative")
        if self.w:
            if any(a < b for a, b in zip(self.w, self.w[1:])):
                raise ValueError("wall sequence must be nonincreasing")
            if any(x < 0 for x in self.w):
                raise ValueError("wall entries must be nonnegative")
            if len(self.w) - 1 > self.level:
                raise ValueError("wall height exceeds its level")

    def is_empty(self) -> bool:
        return not self.w

    def points(self) -> list[Point]:
        return [(x + self.level - i, x) for i, x in enumerate(self.w)]

    def expand(self) -> BinomialSum:
        out = BinomialSum.__new__(BinomialSum)
        # one point per diagonal, so no two terms share a point
        out._coeffs = {(int(u), int(l)): 1 for u, l in self.points()}
        return out


@dataclass(frozen=True)
class Rubble:
    """Multiset of terms C(x, 0) with x >= 0; evaluates to the term count."""

    uppers: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "uppers", tuple(sorted(self.uppers)))
        if any(x < 0 for x in self.uppers):
            raise ValueError("rubble uppers must be nonnegative")

    def to_sum(self) -> BinomialSum:
        return BinomialSum(((x, 0), 1) for x in self.uppers)

    def evaluate(self) -> int:
        return len(self.uppers)


@dataclass(frozen=True)
class Pavement:
    """Multiset of terms C(i-1, i) with i >= 1; evaluates to zero."""

    columns: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(sorted(self.columns)))
        if any(i < 1 for i in self.columns):
            raise ValueError("pavement columns must be >= 1")

    def to_sum(self) -> BinomialSum:
        return BinomialSum(((i - 1, i), 1) for i in self.columns)

    def evaluate(self) -> int:
        return 0


def dominates(wall: Wall, b: Seq | tuple[int, ...], k: int) -> bool:
    """Wall-above-expression test: conditions on the top diagonal, shared
    columns, and the first column; an empty expression is always dominated."""
    return _dominated(wall, b.terms if isinstance(b, Seq) else tuple(b), k, 0)


def _dominated(wall: Wall, terms: tuple[int, ...], k: int, slack: int) -> bool:
    """The domination test with its (D2) bound loosened by ``slack``: a term
    of the expression in the column of a wall point fails once it reaches
    that point's upper index plus the slack.  ``dominates`` is slack 0; the
    weak domination that ``recursive_reduce`` admits is slack 1."""
    if not terms:
        return True
    if wall.is_empty():
        return False
    if terms[0] - k > wall.level:  # (D1)
        return False
    t = len(terms) - 1
    for u, l in wall.points():  # (D2)
        j = k - l
        if 0 <= j <= t and terms[j] >= u + slack:
            return False
    return wall.w[0] <= k  # (D3)


@dataclass
class ReductionOutcome:
    """Result of the recursive wall reduction.

    The defining identities, both invariantly zero as differences:
      expand(b) + expand(c)  ==  expand(b_out) + expand(c_out) + pavement + shared
      expand(wall)           ==  expand(wall_out) + rubble + shared
    and terminally either wall_out is empty or b_out and c_out both are.
    """

    wall_out: Wall
    b_out: Seq
    c_out: Seq
    rubble: Rubble
    pavement: Pavement
    shared: BinomialSum


def _rebalance(b: list[int], c: list[int]) -> tuple[list[int], list[int]]:
    """Componentwise max/min relabeling; preserves the per-column multiset."""
    if len(b) < len(c):
        b, c = c, b
    for i in range(len(c)):
        if c[i] > b[i]:
            b[i], c[i] = c[i], b[i]
    return b, c


def _terms_to_wall(points: list[Point]) -> Wall:
    if not points:
        return Wall((), 0)
    diags = [u - l for (u, l) in points]
    top = diags[0]
    if diags != list(range(top, top - len(points), -1)):
        raise RuntimeError(f"wall fragments not on consecutive diagonals: {points}")
    lowers = [l for (_u, l) in points]
    return Wall(tuple(lowers), top)


def recursive_reduce(wall: Wall, b: Seq, c: Seq, k: int) -> ReductionOutcome:
    """Reduce a wall against a dominated pair of cascade sequences.

    Repeatedly peels the interaction between the wall's lowest term and the
    tail of b: collisions move shared coefficients into ``shared``, wall
    fragments pushed into column 0 become rubble, sequence fragments pushed
    below diagonal 0 become pavement.  Stops once the wall or both sequences
    are exhausted.  The two defining identities are verified before
    returning.  A weakly dominated input whose reduction reaches an
    unresolvable collision raises ``NotReducibleError``.

    Every step is built on two moves: ``shed`` leaves the vertical run a
    collision passes over as rubble or as new wall terms, and ``slide``
    moves b's last term down its diagonal into a run of terms or pavement.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not b.terms or wall.is_empty():
        raise ValueError("wall and b must both be nonempty")
    if not (b.is_k_binomial(k) and (not c.terms or c.is_k_binomial(k))):
        raise ValueError("b and c must be cascade decompositions at level k")
    if len(c.terms) > len(b.terms) or any(
        ci > bi for bi, ci in zip(b.terms, c.terms)
    ):
        raise ValueError("need max{b, c} = b and min{b, c} = c")
    if wall.w[-1] < 1:
        raise ValueError("wall must end at column >= 1")
    if not (_dominated(wall, b.terms, k, 1) and _dominated(wall, c.terms, k, 1)):
        raise ValueError("wall must dominate both sequences")

    terms = wall.points()  # (upper, lower), diagonal-descending
    bb = list(b.terms)
    cc = list(c.terms)
    rub: list[int] = []
    pav: list[int] = []
    shared: Counter[Point] = Counter()

    def shed(lo: int, hi: int, col: int) -> None:
        # the run C(lo, col) .. C(hi - 1, col): rubble in column 0, else wall
        if col == 0:
            rub.extend(range(lo, hi))
        else:
            terms.extend((x, col) for x in range(lo, hi))

    def slide(col: int, dist: int, diag: int) -> None:
        # b's last term, in column col on diagonal diag, slides dist columns
        # down its diagonal: pavement on diagonal 0, else a run of terms
        cur = bb.pop()
        if diag == 0:
            pav.extend(range(col - dist + 1, col + 1))
        else:
            bb.extend(cur - s for s in range(1, dist + 1))

    # the wall's value bounds the steps; math.comb, as the guard is never
    # reported and may pass the 128-bit range of reported values
    guard = sum(comb(u, l) for u, l in terms) + len(terms) + 8
    steps = 0
    while terms and bb:
        steps += 1
        if steps > guard:
            raise RuntimeError("reduction failed to terminate within its measure")
        t = len(bb) - 1
        q = k - t
        j = bb[-1] - q
        bu, v = terms[-1]
        ib = k - v
        if ib <= t:
            # wall bottom sits in a column b occupies: absorb b's tail into
            # shared, shedding one vertical run per consumed column
            terms.pop()
            upper = bu
            for s in range(ib, t + 1):
                col = k - s
                p = bb[s]
                if p > upper:
                    raise NotReducibleError("domination lost during cascade")
                if p == upper and s < t:
                    raise NotReducibleError(
                        "boundary collision with a longer tail is not reducible"
                    )
                shared[(p, col)] += 1
                shed(p if s == t else p + 1, upper, col - 1)
                upper = p
            bb, cc = bb[:ib] + cc[ib:], cc[:ib]
        elif j >= bu - v:
            # b's last diagonal meets the wall: consume the wall from that
            # diagonal downward, one collision per diagonal
            idx = (terms[0][0] - terms[0][1]) - j
            tail = terms[idx:]
            del terms[idx:]
            for pos, (tu, tl) in enumerate(tail):
                diag = tu - tl
                col = k - (len(bb) - 1)
                if bb[-1] - col != diag:
                    raise RuntimeError("diagonal misalignment in wall consumption")
                dist = col - tl
                if dist < 0:
                    raise NotReducibleError("domination lost during wall consumption")
                shared[(tu, tl)] += 1
                if dist == 0 and pos != len(tail) - 1:
                    raise NotReducibleError(
                        "boundary collision inside the wall tail is not reducible"
                    )
                slide(col, dist, diag)
        else:
            # wall bottom is strictly above and left of b's last term: slide
            # the term along its diagonal into the wall's column and collide
            landed = bb[-1] - (q - v)
            shared[(landed, v)] += 1
            terms.pop()
            shed(landed, bu, v - 1)
            slide(q, q - v, j)
        terms.sort(key=lambda pt: pt[1] - pt[0])
        bb, cc = _rebalance(bb, cc)

        if not Seq(tuple(bb), k).is_k_binomial(k) or not Seq(tuple(cc), k).is_k_binomial(k):
            raise RuntimeError("reduction produced an invalid sequence")

    outcome = ReductionOutcome(
        wall_out=_terms_to_wall(terms),
        b_out=Seq(tuple(bb), k),
        c_out=Seq(tuple(cc), k),
        rubble=Rubble(tuple(rub)),
        pavement=Pavement(tuple(pav)),
        shared=BinomialSum(shared),
    )
    _verify_outcome(wall, b, c, k, outcome)
    return outcome


def _verify_outcome(
    wall: Wall, b: Seq, c: Seq, k: int, outcome: ReductionOutcome
) -> None:
    # each side is summed in place, in one dict rather than one per + or -
    seq_side = BinomialSum.from_seq(b, k)._accumulate(BinomialSum.from_seq(c, k), 1)
    for part in (
        BinomialSum.from_seq(outcome.b_out, k),
        BinomialSum.from_seq(outcome.c_out, k),
        outcome.pavement.to_sum(),
        outcome.shared,
    ):
        seq_side._accumulate(part, -1)
    wall_side = wall.expand()
    for part in (outcome.wall_out.expand(), outcome.rubble.to_sum(), outcome.shared):
        wall_side._accumulate(part, -1)
    if not is_invariantly_zero(seq_side):
        raise RuntimeError("sequence-side reduction identity failed")
    if not is_invariantly_zero(wall_side):
        raise RuntimeError("wall-side reduction identity failed")
    if not outcome.wall_out.is_empty() and outcome.b_out.terms:
        raise RuntimeError("reduction stopped before a terminal state")
