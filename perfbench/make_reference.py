"""Regenerate reference.json: counts the benchmark checks the program against.

    python3 perfbench/make_reference.py

Every count comes from a naive enumerator built on ``oracle`` alone (no
shadowlab import): the triples the inequality sweeps must visit, the cascades
the split comparison must cover, and the number of extremal m-subfamilies of
the (6,3) layer, found by testing all 2^20 subfamilies one by one.
"""

from __future__ import annotations

import json
import math
import os
from itertools import combinations

import oracle

LEMMA_SCALES = [(k, 10) for k in range(2, 6)]
GENERAL_LEVEL_SCALES = [(2, 10, 3), (3, 8, 2), (5, 8, 1)]
SPLITS_SCALE = (8, 5)  # amax, kmax


def cascades(k: int, amax: int) -> list[tuple[int, ...]]:
    """Every valid k-cascade with leading term at most amax."""
    return [
        terms
        for length in range(1, k + 1)
        for terms in combinations(range(amax, 0, -1), length)
        if oracle.is_cascade_shape(list(terms), k)
    ]


def decreasing(level: int, floor_shift: int, cap: int, max_len: int):
    """(terms, value) for every strictly decreasing nonnegative sequence with
    term j >= level - j - floor_shift, at most max_len terms and value
    sum C(term_j, level - j) <= cap; the empty sequence included."""
    top = 0
    while math.comb(top + 1, level) <= cap:
        top += 1
    out = []
    for length in range(0, max_len + 1):
        for terms in combinations(range(top, -1, -1), length):
            if any(t < level - j - floor_shift for j, t in enumerate(terms)):
                continue
            value = sum(oracle.gbinom(t, level - j) for j, t in enumerate(terms))
            if value <= cap:
                out.append((terms, value))
    return out


def by_value(seqs) -> dict[int, int]:
    counts: dict[int, int] = {}
    for _terms, value in seqs:
        counts[value] = counts.get(value, 0) + 1
    return counts


def lemma_checked(k: int, amax: int) -> int:
    """Triples (a, b, c): b nonempty and at least a - 1 in lex order, c at
    level k - 1, and value(b) + value(c) = value(a) at level k."""
    cap = oracle.cascade_value(list(range(amax, amax - k, -1)), k)
    bs = decreasing(k, 1, cap, k + 1)
    cs = by_value(decreasing(k - 1, 1, cap, k))
    total = 0
    for a in cascades(k, amax):
        m = oracle.cascade_value(list(a), k)
        a1 = tuple(x - 1 for x in a)
        for b, bv in bs:
            if b and bv <= m and b >= a1:
                total += cs.get(m - bv, 0)
    return total


def general_level_checked(k: int, amax: int, shift: int) -> int:
    """Triples (a, b, c) with b at level k1 and c at level k2, for all
    k <= k1, k2 <= k + shift, and value(b) + value(c) = value(a)."""
    a_values = [oracle.cascade_value(list(a), k) for a in cascades(k, amax)]
    cap = max(a_values)
    total = 0
    for k1 in range(k, k + shift + 1):
        bs = decreasing(k1, 1, cap, k1 + 1)
        for k2 in range(k, k + shift + 1):
            cs = by_value(decreasing(k2, 1, cap, k2 + 1))
            for m in a_values:
                total += sum(cs.get(m - bv, 0) for _b, bv in bs if bv <= m)
    return total


def splits_checked(amax: int, kmax: int) -> int:
    """Cascades shorter than their level, the ones the split formulas cover."""
    return sum(
        1 for k in range(2, kmax + 1) for a in cascades(k, amax) if len(a) < k
    )


def extremal_counts(n: int, k: int) -> dict[int, int]:
    """Number of extremal m-subfamilies of C([n], k), by testing each one."""
    masks = oracle.layer(n, k)
    sheds = [oracle.shadow([m]) for m in masks]
    bounds = [oracle.kk_bound(m, k) for m in range(len(masks) + 1)]
    counts = {m: 0 for m in range(1, len(masks) + 1)}
    for pattern in range(1, 1 << len(masks)):
        members = [i for i in range(len(masks)) if pattern >> i & 1]
        covered = set().union(*(sheds[i] for i in members))
        if len(covered) == bounds[len(members)]:
            counts[len(members)] += 1
    return counts


def main() -> None:
    reference = {
        "lemma_sweep": {
            f"{k},{amax}": lemma_checked(k, amax) for k, amax in LEMMA_SCALES
        },
        "general_level_sweep": {
            f"{k},{amax},{shift}": general_level_checked(k, amax, shift)
            for k, amax, shift in GENERAL_LEVEL_SCALES
        },
        "splits_comparison": {
            "{},{}".format(*SPLITS_SCALE): splits_checked(*SPLITS_SCALE)
        },
        "extremal_6_3": extremal_counts(6, 3),
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(reference, fp, indent=1, sort_keys=True)
        fp.write("\n")


if __name__ == "__main__":
    main()
