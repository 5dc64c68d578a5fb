"""Exact verification of the binomial-sequence inequalities and equality cases.

The check functions evaluate every clause and report which hypotheses an
input violates instead of rejecting it, so published counterexamples can be
classified.  The sweep helpers enumerate the full hypothesis space at desk
scale and are the acceptance oracles.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress
from operator import add, mul

from .exact import BudgetError, Seq, binom, lex_cmp, seq_minus, seq_shift, seq_value

NEAR_VIOLATION_TOL = 1e-9  # conjecture slack below -this is a near-violation
SPLIT_BUDGET = 100_000  # candidate sequences one level of a split sweep may enumerate
SCAN_BUDGET = 1_000_000  # grid points times y samples one conjecture scan may evaluate


@dataclass
class InequalityRow:
    i: int
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


@dataclass
class AbcReport:
    """Clause-by-clause evaluation of one (a, b, c) instance."""

    k: int
    k1: int
    k2: int
    hypotheses: dict[str, bool]
    inequality_at: dict[int, InequalityRow]
    shifted_at: dict[int, InequalityRow]
    equality_at_1: bool = False
    equality_propagates: bool = False


def _evaluate(a: Seq, b: Seq, c: Seq, k: int, k1: int, k2: int) -> AbcReport:
    """The rows of a at level k against b at k1 plus c at k2, and the
    hypotheses ``check_abc`` and ``check_abck`` share."""
    rows = {
        i: InequalityRow(
            i,
            seq_value(a, k - i),
            seq_value(b, k1 - i) + seq_value(c, k2 - i),
        )
        for i in range(0, k + 1)
    }
    shifted = {
        i: InequalityRow(
            i,
            seq_shift(a, i, i, k),
            seq_shift(b, i, i, k1) + seq_shift(c, i, i, k2),
        )
        for i in range(0, k + 1)
    }
    eq1 = rows[1].equal if k >= 1 else False
    propagates = eq1 and all(rows[i].equal for i in range(1, k + 1))
    return AbcReport(
        k=k,
        k1=k1,
        k2=k2,
        hypotheses={
            "equality_base": rows[0].equal,
            "nonneg": b.is_nonneg() and c.is_nonneg(),
            "decreasing": b.is_strictly_decreasing() and c.is_strictly_decreasing(),
            "b_lower_bounds": all(bj >= k1 - j - 1 for j, bj in enumerate(b.terms)),
            "c_lower_bounds": all(cj >= k2 - j - 1 for j, cj in enumerate(c.terms)),
        },
        inequality_at=rows,
        shifted_at=shifted,
        equality_at_1=eq1,
        equality_propagates=propagates,
    )


def check_abc(a: Seq, b: Seq, c: Seq, k: int) -> AbcReport:
    """Evaluate the split m = C(b, k) + C(c, k-1) against all its clauses.

    ``a`` must be the cascade decomposition of a positive integer; b and c
    may violate the hypotheses, in which case the violations are recorded
    and the inequality rows still computed.
    """
    if not (a.terms and a.is_k_binomial(k)):
        raise ValueError("a must be the cascade decomposition of a positive integer")
    report = _evaluate(a, b, c, k, k, k - 1)
    report.hypotheses["b_nonempty"] = bool(b.terms)
    report.hypotheses["lex"] = bool(b.terms) and lex_cmp(b, seq_minus(a, 1)) >= 0
    return report


def check_abck(a: Seq, b: Seq, c: Seq, k: int, k1: int, k2: int) -> AbcReport:
    """Generalized-level variant: requires k1, k2 >= k, or (k1, k2) = (k, k-1)
    with nonempty b at least a - 1 in lex order."""
    if not (a.terms and a.is_k_binomial(k)):
        raise ValueError("a must be the cascade decomposition of a positive integer")
    if k1 >= k and k2 >= k:
        pass
    elif (k1, k2) == (k, k - 1):
        if not b.terms or lex_cmp(b, seq_minus(a, 1)) < 0:
            raise ValueError(
                "the (k, k-1) case needs a nonempty b at least a - 1 in lex order"
            )
    else:
        raise ValueError("need k1, k2 >= k or (k1, k2) = (k, k-1)")
    return _evaluate(a, b, c, k, k1, k2)


def _admissible(level: int, cap: int, depth: int = 0, cascades: bool = False) -> list[tuple]:
    """Every sequence admissible at ``level`` whose value there is at most cap.

    Admissible means strictly decreasing and nonnegative with s_j >= level -
    j - 1 and at most level + 1 terms: a term past index ``level`` is
    evaluated at a negative level and contributes zero to every row, so
    longer tails would be representation noise; ``cascades`` keeps the
    cascades, s_j >= level - j and at most level terms.  Entries are (terms,
    row), the row holding the values at levels level, ..., level - depth,
    summed as the descent adds one precomputed column of binomials per term,
    depth first with ascending terms: tuple order, the empty tuple first;
    the sweeps bisect on it.  This one enumerator serves every split sweep;
    a caller that needs a smaller cap may keep the entries of value at most
    that cap, exactly the smaller cap's entries, in order.  The entries are
    among the decreasing tuples of at most level + 1 terms below top + 1,
    top being the largest first term; past ``SPLIT_BUDGET`` such tuples it
    raises ``BudgetError`` before listing any.
    """
    top = 0
    while binom(top + 1, level) <= cap:
        top += 1
        reach = sum(binom(top + 1, r) for r in range(level + 2))
        if reach > SPLIT_BUDGET:
            raise BudgetError(
                f"level-{level} sequences of value at most {cap} reach {reach} candidates "
                f"by first term {top}, over the split budget of {SPLIT_BUDGET}"
            )
    slack = 0 if cascades else 1  # how far below its cascade bound a term may sit
    binoms = [[binom(x, r) for r in range(level, -depth - 1, -1)] for x in range(top + 1)]
    # columns[j][x]: what the term x at index j adds to a row
    columns = [[tuple(b[j : j + depth + 1]) for b in binoms] for j in range(level + 1)]
    out: list[tuple] = [((), (0,) * (depth + 1))]

    def rec(prefix: list[int], row: tuple[int, ...]) -> None:
        j = len(prefix)
        for term in range(max(level - j - slack, 0), prefix[-1] if prefix else top + 1):
            child = tuple(map(add, row, columns[j][term]))
            if child[0] > cap:
                break
            prefix.append(term)
            out.append((tuple(prefix), child))
            if j < level - 1 + slack:
                rec(prefix, child)
            prefix.pop()

    rec([], out[0][1])
    return out


def _cascade_cap(k: int, amax: int) -> int:
    """The largest level-k value of a cascade with a_0 <= amax, for amax >=
    k: that of (amax, amax - 1, ..., amax - k + 1), C(amax + 1, k) - 1."""
    return binom(amax + 1, k) - 1


def _listing_order(terms: tuple[int, ...]) -> tuple:
    """Sort key of the order the reports list cascades in: shorter first,
    then larger terms first."""
    return len(terms), tuple(-x for x in terms)


def _cascade_rows(k: int, cap: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The level-k cascades of the values 1..cap with their rows, in tuple order."""
    out = _admissible(k, cap, k, cascades=True)[1:]  # past the empty tuple
    if [row[0] for _t, row in out] != list(range(1, cap + 1)):
        raise RuntimeError(f"the level-{k} cascades in tuple order are not the values 1..{cap}")
    return out


def _split_universe(k: int, cap: int):
    """The admissible b at level k and c at level k - 1, grouped by value,
    each of value at most cap and with a row of k + 1 values."""
    c_by_value: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    for entry in _admissible(k - 1, cap, k):
        c_by_value.setdefault(entry[1][0], []).append(entry)
    return _admissible(k, cap, k), c_by_value


def _grouped(entries) -> dict[int, tuple[list, list]]:
    """Entries (terms, rows) grouped by their value rows[0]: per value, the
    terms and the row vectors, in the entries' order."""
    groups: dict[int, tuple[list, list]] = {}
    for terms, rows in entries:
        group = groups.setdefault(rows[0], ([], []))
        group[0].append(terms)
        group[1].append(rows)
    return groups


def _column_bounds(rows: list[tuple[int, ...]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The column minima of rows, and the column maxima over the rows at the
    level-1 minimum (column 1): the floors and the tops of a group."""
    minima = tuple(map(min, zip(*rows)))
    return minima, tuple(map(max, zip(*[row for row in rows if row[1] == minima[1]])))


def _block_certifier(a_rows: list, c_bounds: list, b_bounds: list):
    """The one certificate of ``lemma_sweep``, on packed fields.

    a_rows holds a's row at every cascade position, c_bounds the
    ``_column_bounds`` of the c group of every value, and b_bounds those of
    the b groups.  Returns ``unsettled(v, start, stop, b_bound)``: the
    positions p in start..stop - 1 whose block, the b of value v against
    the c group of value p + 1 - v, the bounds leave open, b_bound being
    those of the whole b group.  A block is settled when its floors hold,
    a's row at most the sum of the b and c column minima at every level and
    below it at level 1, or when they hold with level 1 tight and the tops,
    the b and c column maxima at the level-1 minimum, sum to at most a's
    row at every level from 2.

    Each level's column of a's rows, of the c minima and of the c tops is
    one int of fixed-width byte fields, entry p in field p, each entry
    raised by a bias, the largest magnitude present, so that negative rows
    pack exactly.  The width leaves |c + b - a| <= 3 * bias below a guard
    bit, the field's top bit, so a sum and a difference of two windows plus
    guard + bound in every field carries and borrows within each field
    alone, and a field's guard bit survives exactly where left - right +
    bound >= 0 (the trick of ``extremal._field_min``).  A few big-int
    operations per level decide every position of a b value at once, and
    the open fields are read from the result's bytes.
    """
    levels = range(1, len(a_rows[0]))
    bias = max(map(abs, chain.from_iterable(chain(a_rows, *c_bounds, *b_bounds))))
    size = ((3 * bias).bit_length() + 8) // 8  # |c + b - a| stays below the guard bit
    width = 8 * size
    guard = 0x80 << (width - 8)  # the top bit of a field
    unit = (1).to_bytes(size, "little")

    def packed(rows: list) -> list[int]:
        columns = list(zip(*rows))[1:]  # level 0 holds the values, equal in every block
        fields = ([(x + bias).to_bytes(size, "little") for x in column] for column in columns)
        return [int.from_bytes(b"".join(column), "little") for column in fields]

    a_columns = packed(a_rows)
    c_minima, c_tops = (packed(rows) for rows in zip(*c_bounds))

    def unsettled(v: int, start: int, stop: int, b_bound: tuple) -> Iterable[int]:
        count = stop - start
        ones = int.from_bytes(unit * count, "little")
        window = (1 << count * width) - 1
        a_at, c_at = start * width, (start + 1 - v) * width
        (b_min, b_top), floors, tops = b_bound, -1, -1
        for i, a, c_min, c_top in zip(levels, a_columns, c_minima, c_tops):
            a = a >> a_at & window
            floor = (c_min >> c_at & window) + (guard + b_min[i]) * ones - a
            floors &= floor
            if i == 1:
                strict = floor - ones  # level 1 must hold strictly
            else:
                tops &= a + (guard - b_top[i]) * ones - (c_top >> c_at & window)
        flagged = guard * ones & ~(floors & (strict | tops))
        guards = flagged.to_bytes(count * size, "little")[size - 1 :: size]
        return compress(range(start, stop), guards)

    return unsettled


def _violation(arows: tuple, brows: tuple, crows: tuple) -> tuple[str, int] | None:
    """What one triple's rows violate: the first failed inequality, else a
    level-1 equality that does not propagate to every level."""
    sums = tuple(map(add, brows, crows))
    for i in range(1, len(arows)):
        if arows[i] > sums[i]:
            return "inequality", i
    if arows[1] == sums[1] and arows[2:] != sums[2:]:
        return "propagation", 0
    return None


def lemma_sweep(k: int, amax: int) -> dict:
    """Exhaustively verify the inequality family and equality propagation.

    Sweeps every cascade a with a_0 <= amax against every admissible (b, c)
    with value(b, k) + value(c, k-1) = value(a, k) and b at least a - 1 in
    lex order; records any failed inequality or failed propagation.

    For one a, a block holds the b of one value that are at least a - 1 and
    every c of the complementary value.  As cascades and their a - 1 in
    tuple order are in value order, a b value's first and last terms cut the
    cascades into a range where the block is the whole group, a range where
    the group holds a - 1's lex boundary, and a range with no block.
    ``_block_certifier`` settles the blocks of both ranges, every cascade at
    once, on the bounds of the whole group.  They hold for a block's part
    of the group too: its column minima are at least the group's, and a
    triple tight at level 1 has b at the group's level-1 minimum, where the
    group's tops bound it.  Each block the certificate leaves open is
    checked triple by triple.  ``checked`` counts triples; violations are
    listed by a, then by b's terms and c's.
    """
    if k < 2:
        raise ValueError("the sweep needs k >= 2")
    if amax < 2:
        raise ValueError("the sweep needs amax >= 2")
    if amax < k:  # no cascade, so nothing to check or enumerate
        return {"k": k, "amax": amax, "checked": 0, "violations": []}
    cap = _cascade_cap(k, amax)
    bs, c_by_value = _split_universe(k, cap)
    cascades = _cascade_rows(k, cap)  # position p holds the value p + 1
    a1s = [tuple(x - 1 for x in terms) for terms, _row in cascades]
    c_groups = [c_by_value[w] for w in range(cap + 1)]  # each value has a (k-1)-cascade
    c_bounds = [_column_bounds([r for _t, r in cs]) for cs in c_groups]
    c_before = list(accumulate(map(len, c_groups), initial=0))
    b_groups = sorted(_grouped(bs).items())
    b_bounds = [_column_bounds(rows) for _v, (_terms, rows) in b_groups]
    unsettled = _block_certifier([row for _t, row in cascades], c_bounds, b_bounds)
    checked, found = 0, {}  # found: a's position -> its violations
    for (v, (b_terms, b_rows)), b_bound in zip(b_groups, b_bounds):
        start = max(v, 1) - 1
        whole = max(start, bisect_right(a1s, b_terms[0]))
        end = max(whole, bisect_right(a1s, b_terms[-1]))
        w0, w1 = start + 1 - v, whole + 1 - v  # the c values of start and whole
        checked += len(b_terms) * (c_before[w1] - c_before[w0])
        for p in range(whole, end):
            checked += (len(b_terms) - bisect_left(b_terms, a1s[p])) * len(c_groups[p + 1 - v])
        for p in unsettled(v, start, end, b_bound):
            arows = cascades[p][1]
            for j in range(bisect_left(b_terms, a1s[p]), len(b_terms)):  # 0 below whole
                for c_terms, crows in c_groups[p + 1 - v]:
                    violation = _violation(arows, b_rows[j], crows)
                    if violation:
                        found.setdefault(p, []).append((b_terms[j], c_terms) + violation)
    order = sorted(found, key=lambda p: _listing_order(cascades[p][0]))
    violations = [(cascades[p][0],) + violation for p in order for violation in sorted(found[p])]
    return {"k": k, "amax": amax, "checked": checked, "violations": violations}


def _general_row(row: tuple[int, ...]) -> tuple[int, int, int]:
    """A row's value, its value one level down and its (1, 1)-shifted value,
    read as in ``general_level_sweep``; the row must reach level 0."""
    return row[0], row[1], sum(row[1::2]) - sum(row[2::2])


def _level_floors(levels: range, cap: int) -> tuple[dict, list]:
    """The groups and the two floors ``general_level_sweep`` certifies with.

    groups[level] maps each value v <= cap to the terms and the general rows
    of the admissible sequences of value v at level (``_grouped``); every
    value has a cascade there, so no value is missing.  There is one floor
    per left-hand side, the value one level down and the (1, 1)-shifted
    value: entry m is the least sum of that side over every pair of
    sequences, at any two of the levels, whose values add up to m.  It is
    the min-plus convolution of the least side of each value over the
    levels with itself, and as v and m - v give the same sum, v runs up to
    m / 2.
    """
    groups = {
        level: _grouped((t, _general_row(row)) for t, row in _admissible(level, cap, level))
        for level in levels
    }
    floors = []
    for i in (1, 2):
        low = [
            min(row[i] for level in levels for row in groups[level][v][1]) for v in range(cap + 1)
        ]
        floors.append([min(map(add, low[: m // 2 + 1], low[m::-1])) for m in range(cap + 1)])
    return groups, floors


def general_level_sweep(k: int, amax: int, kmax_shift: int = 2) -> dict:
    """Verify the generalized-level inequalities for all k1, k2 >= k.

    Sweeps every cascade a with a_0 <= amax and every level in
    k..k+kmax_shift, each enumerated once with rows down to level 0.  A
    row gives both left-hand sides: the value one level down is row[1],
    and the (1, 1)-shifted value is the alternating sum row[1] - row[2] +
    row[3] - ..., since C(x - 1, j) is the sum over i = 0..j of (-1)^i
    C(x, j - i).  The floors at m (``_level_floors``) are the least sums of
    each left side over every pair (b, c), at any two of the levels, whose
    values add up to m, so a cascade of value m whose left sides are at
    most them holds against every triple of every level pair: two
    comparisons per cascade, the one certificate.  A cascade above a floor
    is checked triple by triple at each level pair.  ``checked`` counts
    triples, in closed form: with n_v sequences of value v over all the
    levels, the level pairs hold the sum over v of n_v times the sequences
    of value at most cap - v, less the m = 0 term.  Violations are listed
    by (k1, k2), a (shorter first, then larger terms first), then b's terms
    and c's.  Needs k >= 1 and kmax_shift >= 0; with amax < k there is no
    cascade and nothing to check.
    """
    if k < 1:
        raise ValueError("the sweep needs k >= 1")
    if kmax_shift < 0:
        raise ValueError("the sweep needs kmax_shift >= 0")
    if amax < k:
        return {"checked": 0, "violations": []}
    cap = _cascade_cap(k, amax)
    a_rows = sorted(
        ((terms, _general_row(row)) for terms, row in _cascade_rows(k, cap)),
        key=lambda entry: _listing_order(entry[0]),
    )
    levels = range(k, k + kmax_shift + 1)
    groups, (down_floor, shift_floor) = _level_floors(levels, cap)
    sizes = [sum(len(groups[level][v][0]) for level in levels) for v in range(cap + 1)]
    at_most = list(accumulate(sizes))
    checked = sum(map(mul, sizes, reversed(at_most))) - sizes[0] * at_most[0]
    above = [
        (a_terms, (m, lhs, s_lhs))
        for a_terms, (m, lhs, s_lhs) in a_rows
        if lhs > down_floor[m] or s_lhs > shift_floor[m]
    ]
    violations: list[tuple] = []
    for k1 in levels:
        for k2 in levels:
            c_groups = groups[k2]
            for a_terms, (m, lhs, s_lhs) in above:
                found = []
                for v, (b_terms, b_rows) in groups[k1].items():
                    if v > m or m - v not in c_groups:
                        continue
                    c_terms, c_rows = c_groups[m - v]
                    for bt, (_, b_down, b_shift) in zip(b_terms, b_rows):
                        for ct, (_, c_down, c_shift) in zip(c_terms, c_rows):
                            if lhs > b_down + c_down or s_lhs > b_shift + c_shift:
                                found.append((bt, ct))
                found.sort()
                violations += [(a_terms, bt, ct, k1, k2) for bt, ct in found]
    return {"checked": checked, "violations": violations}


def equality_splits(a: Seq, k: int) -> list[tuple[Seq, Seq]]:
    """All (b, c) splits achieving equality at levels k and k - 1.

    Emitted from the two closed-form families at every admissible cut index,
    plus the full-decrement split b = c = a - 1; requires the cascade of a to
    be shorter than k.
    """
    if not (a.terms and a.is_k_binomial(k)):
        raise ValueError("a must be the cascade decomposition of a positive integer")
    t = len(a.terms) - 1
    if t + 1 >= k:
        raise ValueError("the split formulas require a cascade shorter than k")
    terms = a.terms
    pairs: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for i in range(0, t + 2):
        if 0 < i <= t and not terms[i - 1] - 1 > terms[i]:
            continue
        head = tuple(x - 1 for x in terms[:i])
        if i <= t:
            b1 = head + (terms[i],)
            c1 = head + terms[i + 1 :]
            pairs.add((b1, c1))
        b2 = head + terms[i:]
        c2 = head
        pairs.add((b2, c2))
    out = []
    m = seq_value(a, k)
    bound = seq_value(a, k - 1)
    for b_terms, c_terms in sorted(pairs):
        b = Seq(b_terms, k)
        c = Seq(c_terms, k - 1)
        if seq_value(b, k) + seq_value(c, k - 1) != m:
            raise RuntimeError(f"split {b_terms}, {c_terms} misses the value at level k")
        if seq_value(b, k - 1) + seq_value(c, k - 2) != bound:
            raise RuntimeError(f"split {b_terms}, {c_terms} misses equality at level k - 1")
        out.append((b, c))
    return out


def split_profile(b: Seq, c: Seq, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Values of b and c at every level the inequalities evaluate.

    Two pairs with equal profiles are the same split: boundary terms that
    contribute identically at every level from k downward are representation
    noise, not a different choice.
    """
    return (
        tuple(seq_value(b, k - i) for i in range(0, k + 1)),
        tuple(seq_value(c, k - 1 - i) for i in range(0, k + 1)),
    )


def brute_force_equality_splits(a: Seq, k: int) -> list[tuple[Seq, Seq]]:
    """Every hypothesis-satisfying equality split, by exhaustive search.

    The independent oracle for ``equality_splits``: it searches the whole
    admissible (b, c) space instead of applying the closed forms.
    """
    if k < 2:
        raise ValueError("the split search needs k >= 2")
    if not (a.terms and a.is_k_binomial(k)):
        raise ValueError("a must be the cascade decomposition of a positive integer")
    splits = _equality_splits_in(_split_index(k, seq_value(a, k)), a, k)
    return [(Seq(b_terms, k), Seq(c_terms, k - 1)) for (b_terms, _), (c_terms, _) in splits]


def _split_index(k: int, cap: int) -> tuple[dict, dict]:
    """The split universe at cap, indexed for the equality search: the b
    ``_grouped`` by value, and the c entries by their value and level-1
    value, each list in tuple order."""
    bs, c_by_value = _split_universe(k, cap)
    c_index: dict[tuple[int, int], list] = {}
    for group in c_by_value.values():
        for entry in group:
            c_index.setdefault(entry[1][:2], []).append(entry)
    return _grouped(bs), c_index


def _equality_splits_in(index: tuple[dict, dict], a: Seq, k: int) -> list[tuple[tuple, tuple]]:
    """The brute-force search for a's equality splits within a
    ``_split_index`` built at any cap of at least the value of a.

    Walks the b values up to a's, and in each the b at least a - 1; the c
    that complete a b, of the complementary value and with the level-1
    value that makes the split tight, are one lookup.  Returns the
    universe's (terms, rows) entries of b and c for each split, ordered by
    b's terms, then c's, as a walk of both sides in tuple order gives them.
    The rows are the values at every level the inequalities evaluate, so
    each pair of rows is the split's ``split_profile``.
    """
    m = seq_value(a, k)
    bound = seq_value(a, k - 1)
    a1 = tuple(x - 1 for x in a.terms)
    b_groups, c_index = index
    out = []
    for v in range(m + 1):
        b_terms, b_rows = b_groups.get(v, ((), ()))
        for j in range(bisect_left(b_terms, a1), len(b_terms)):
            for c in c_index.get((m - v, bound - b_rows[j][1]), ()):
                out.append(((b_terms[j], b_rows[j]), c))
    out.sort()
    return out


def splits_comparison(amax: int, kmax: int) -> dict:
    """Closed-form splits vs brute force for every admissible cascade.

    Compared by value profile; an "extra" is an exhaustive split whose
    profile no formula pair matches, a "missing" entry the converse.  The
    cascades shorter than k come from ``_cascade_rows``; the split universe
    is built once per k, at their largest value, and its row vectors are the
    brute-force splits' profiles.
    """
    if kmax < 2 or amax < 2:
        raise ValueError("the comparison needs kmax >= 2 and amax >= 2")
    extras: list[tuple] = []
    missing: list[tuple] = []
    checked = 0
    for k in range(2, min(kmax, amax) + 1):  # a level past amax holds no cascade
        short = [(t, row[0]) for t, row in _cascade_rows(k, _cascade_cap(k, amax)) if len(t) < k]
        index = _split_index(k, max(value for _t, value in short))
        for terms in sorted((t for t, _value in short), key=_listing_order):
            a = Seq(terms, k)
            checked += 1
            formula = {split_profile(b, c, k) for b, c in equality_splits(a, k)}
            brute = {
                (brows, crows) for (_, brows), (_, crows) in _equality_splits_in(index, a, k)
            }
            for pair in brute - formula:
                extras.append((k, a.terms, pair))
            for pair in formula - brute:
                missing.append((k, a.terms, pair))
    return {"checked": checked, "extras": extras, "missing": missing}


# ---------------------------------------------------------------------------
# real-valued conjecture scan

def real_binom(x: float, j: int) -> float:
    """Falling-factorial binomial with a real upper index."""
    if j < 0:
        return 0.0
    out = 1.0
    for i in range(j):
        out *= (x - i) / (i + 1)
    return out


def _solve_z(target: float, k: int, hi: float, tol: float = 1e-13) -> float:
    """Monotone bisection for C(z, k-1) = target on z in [k-2, hi]."""
    lo = float(k - 2)
    if target <= 0.0:
        return lo
    f_hi = real_binom(hi, k - 1)
    if f_hi < target:
        raise RuntimeError("bisection bracket does not contain the target")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if real_binom(mid, k - 1) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, abs(hi)):
            return 0.5 * (lo + hi)
    raise RuntimeError("bisection failed to converge")


@dataclass
class ConjectureReport:
    k: int
    xs: list[float]
    min_slack: float
    argmin: tuple[float, float, float]  # (x, y, z)
    near_violations: list[tuple[float, float, float, float]] = field(
        default_factory=list
    )


def conjecture_scan(k: int, x_grid: list[float], y_samples: int = 41) -> ConjectureReport:
    """Scan the real-variable shadow inequality on a grid; reports only.

    For each x and each y in [x-1, x], z solves C(z, k-1) = C(x, k) - C(y, k)
    and the slack C(y, k-1) + C(z, k-2) - C(x, k-1) is recorded.  A slack
    below -``NEAR_VIOLATION_TOL`` is a near-violation, never an assertion.
    More than ``SCAN_BUDGET`` grid points times y samples raise
    ``BudgetError`` before any is evaluated.
    """
    if k < 2:
        raise ValueError("the scan needs k >= 2")
    if not x_grid:
        raise ValueError("the grid is empty")
    if any(x < k for x in x_grid):
        raise ValueError("grid values must be at least k")
    if y_samples < 1:
        raise ValueError("need y_samples >= 1")
    if len(x_grid) * y_samples > SCAN_BUDGET:
        raise BudgetError(
            f"a grid of {len(x_grid)} points times {y_samples} y samples "
            f"exceeds the scan budget of {SCAN_BUDGET}"
        )
    best = float("inf")
    argmin = (float("nan"),) * 3
    near: list[tuple[float, float, float, float]] = []
    for x in x_grid:
        for i in range(y_samples):
            y = (x - 1.0) + i / (y_samples - 1) if y_samples > 1 else x
            target = real_binom(x, k) - real_binom(y, k)
            z = _solve_z(target, k, hi=float(x))
            slack = real_binom(y, k - 1) + real_binom(z, k - 2) - real_binom(x, k - 1)
            if slack < best:
                best = slack
                argmin = (x, y, z)
            if slack < -NEAR_VIOLATION_TOL:
                near.append((x, y, z, slack))
    return ConjectureReport(
        k=k, xs=list(x_grid), min_slack=best, argmin=argmin, near_violations=near
    )
