"""Reference computations that share no code with shadowlab.

Everything here is plain integers, ``math.comb`` and brute force, so a check
built on it stays independent of whatever the program's engines become.
Families are collections of bit masks: element i of [n] is bit i - 1.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations


def gbinom(n: int, k: int) -> int:
    """Binomial with the falling-factorial reading for a negative upper index."""
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    return (-1) ** k * math.comb(k - n - 1, k)


def cascade(m: int, k: int) -> list[int]:
    """Greedy k-cascade of m: the largest a_0 with C(a_0, k) <= m, then down."""
    terms: list[int] = []
    rem = m
    j = k
    while rem > 0:
        a = j
        while math.comb(a + 1, j) <= rem:
            a += 1
        terms.append(a)
        rem -= math.comb(a, j)
        j -= 1
    return terms


def cascade_value(terms: list[int], level: int) -> int:
    return sum(gbinom(a, level - i) for i, a in enumerate(terms))


def kk_bound(m: int, k: int, i: int = 1) -> int:
    """Kruskal–Katona lower bound for the i-th shadow of m k-sets."""
    return cascade_value(cascade(m, k), k - i)


def mask_of(elements) -> int:
    return sum(1 << (e - 1) for e in elements)


def elements_of(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def layer(n: int, k: int) -> list[int]:
    """All k-subsets of [n] as masks, ascending (which is colex order)."""
    return sorted(mask_of(s) for s in combinations(range(1, n + 1), k))


def shadow(masks) -> set[int]:
    out = set()
    for m in masks:
        rest = m
        while rest:
            low = rest & -rest
            out.add(m ^ low)
            rest ^= low
    return out


def is_extremal(masks, k: int) -> bool:
    masks = list(masks)
    return k == 1 or len(shadow(masks)) == kk_bound(len(masks), k)


class Relabelings:
    """Every permutation of [n] as a lookup table from mask to image mask."""

    def __init__(self, n: int):
        self.n = n
        self.tables = []
        for perm in permutations(range(n)):
            table = [0] * (1 << n)
            for mask in range(1, 1 << n):
                low = mask & -mask
                table[mask] = table[mask ^ low] | 1 << perm[low.bit_length() - 1]
            self.tables.append(table)

    def images(self, masks):
        for table in self.tables:
            yield tuple(sorted(table[m] for m in masks))

    def key(self, masks) -> tuple[int, ...]:
        """Least image over all relabelings: equal exactly for isomorphic families."""
        return min(self.images(masks))

    def orbit(self, masks) -> set[tuple[int, ...]]:
        return set(self.images(masks))

    def automorphisms(self, masks) -> int:
        own = tuple(sorted(masks))
        return sum(1 for image in self.images(masks) if image == own)


def real_binom(x: float, j: int) -> float:
    out = 1.0
    for i in range(j):
        out *= (x - i) / (i + 1)
    return out if j >= 0 else 0.0


def conjecture_min_slack(k: int, xs: list[float], y_samples: int) -> float:
    """Least slack C(y,k-1) + C(z,k-2) - C(x,k-1) with C(z,k-1) = C(x,k) - C(y,k)."""
    best = math.inf
    for x in xs:
        for i in range(y_samples):
            y = (x - 1.0) + i / (y_samples - 1)
            target = real_binom(x, k) - real_binom(y, k)
            lo, hi = float(k - 2), float(x)
            if target > 0.0:
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if real_binom(mid, k - 1) < target:
                        lo = mid
                    else:
                        hi = mid
                z = 0.5 * (lo + hi)
            else:
                z = lo
            slack = real_binom(y, k - 1) + real_binom(z, k - 2) - real_binom(x, k - 1)
            best = min(best, slack)
    return best


def terms_value(terms, r: int = 0, slide: int = 0) -> int:
    """Value of a sum of (upper, lower, coefficient) terms after a translate."""
    return sum(c * gbinom(u + r, l + slide) for u, l, c in terms)


def zero_on_translates(terms, lo: int, hi: int) -> bool:
    return all(
        terms_value(terms, r, s) == 0
        for r in range(lo, hi + 1)
        for s in range(lo, hi + 1)
    )


def seq_terms(seq: list[int], level: int, coeff: int = 1) -> list[tuple[int, int, int]]:
    return [(a, level - i, coeff) for i, a in enumerate(seq)]


def wall_terms(w: list[int], level: int, coeff: int = 1) -> list[tuple[int, int, int]]:
    return [(x + level - i, x, coeff) for i, x in enumerate(w)]


def reduction_identities(wall, level, b, c, k, report) -> tuple[list, list]:
    """The two defining identities of a reduction report, as term lists that
    must vanish: the sequence side and the wall side."""
    shared = [(u, l, -cf) for u, l, cf in report["shared"]]
    seq_side = (
        seq_terms(b, k)
        + seq_terms(c, k)
        + seq_terms(report["b_out"], k, -1)
        + seq_terms(report["c_out"], k, -1)
        + [(i - 1, i, -1) for i in report["pavement"]]
        + shared
    )
    out = report["wall_out"]
    wall_side = (
        wall_terms(wall, level)
        + wall_terms(out["w"], out["level"], -1)
        + [(x, 0, -1) for x in report["rubble"]]
        + shared
    )
    return seq_side, wall_side


def dominates(w: list[int], level: int, b: list[int], k: int) -> bool:
    """Strict domination of a cascade b by the wall (w, level): the top
    diagonal, every shared column and the first column."""
    if not b:
        return True
    if not w:
        return False
    if b[0] - k > level:
        return False
    for i, wi in enumerate(w):
        j = k - wi
        if 0 <= j < len(b) and b[j] >= wi + level - i:
            return False
    return w[0] <= k


def is_cascade_shape(terms: list[int], k: int) -> bool:
    if not terms:
        return True
    t = len(terms) - 1
    return (
        t + 1 <= k
        and all(a > b for a, b in zip(terms, terms[1:]))
        and terms[-1] >= k - t >= 1
    )
