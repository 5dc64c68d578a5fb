"""Families of k-subsets of [n] as sorted bit vectors.

Elements are 1-based; element i occupies bit i-1, so numeric order of the
masks coincides with colex order on the sets.  All operations are pure and
return new families.  This module owns that format: other modules build,
read, lift and relabel masks through its private helpers (``_mask_of``,
``_layer_masks``, ``_shadow_masks``, ``_element_flags``, ``_lifted``,
``_swapped``, ``_transposed``), and ``tests/test_source.py`` checks that
none spells it.
"""

from __future__ import annotations

import json
import sys
from array import array
from itertools import combinations
from dataclasses import dataclass
from typing import IO, Iterable

from .exact import BudgetError, binom

MAX_GROUND = 64
ISO_SUPPORT_LIMIT = 10
_ISO_BUDGET = 2_000_000
SHADOW_BUDGET = 2_000_000  # sets one step of an iterated or upper shadow may reach


def _check_ground(n: int, k: int) -> None:
    """The ground rule, which every engine checks before any binomial of C(n, k)."""
    if not 0 <= k <= n <= MAX_GROUND:
        raise ValueError(f"need 0 <= k <= n <= {MAX_GROUND}")


def _mask_of(elements: Iterable[int], n: int) -> int:
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside ground set [{n}]")
        bit = 1 << (e - 1)
        if mask & bit:
            raise ValueError(f"repeated element {e}")
        mask |= bit
    return mask


def _elements_of(mask: int) -> tuple[int, ...]:
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


@dataclass(frozen=True)
class KFamily:
    """Family of k-subsets of [n], stored as ascending distinct bit masks.

    k = 0 (the family containing the empty set) is representable so iterated
    shadows can bottom out; the JSON interchange format only carries k >= 1.
    """

    n: int
    k: int
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_ground(self.n, self.k)
        if not isinstance(self.masks, tuple):
            object.__setattr__(self, "masks", tuple(self.masks))
        prev = -1
        for m in self.masks:
            if m <= prev:
                raise ValueError("masks must be strictly ascending")
            if m >> self.n:
                raise ValueError("mask outside ground set")
            if m.bit_count() != self.k:
                raise ValueError("set of wrong cardinality")
            prev = m

    @classmethod
    def from_sets(cls, n: int, k: int, sets: Iterable[Iterable[int]]) -> "KFamily":
        masks = sorted({_mask_of(s, n) for s in sets})
        return cls(n, k, tuple(masks))

    def sets(self) -> list[tuple[int, ...]]:
        return [_elements_of(m) for m in self.masks]

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, item: int | Iterable[int]) -> bool:
        mask = item if isinstance(item, int) else _mask_of(item, self.n)
        return mask in set(self.masks)

    def support_mask(self) -> int:
        out = 0
        for m in self.masks:
            out |= m
        return out

    def support(self) -> tuple[int, ...]:
        return _elements_of(self.support_mask())


def _layer_masks(n: int, k: int) -> list[int]:
    """The k-subsets of [n] as ascending masks, which is colex order."""
    return sorted(sum(1 << (e - 1) for e in s) for s in combinations(range(1, n + 1), k))


def _shadow_masks(masks: Iterable[int]) -> set[int]:
    """The masks one element smaller than some mask of masks."""
    out: set[int] = set()
    for m in masks:
        rest = m
        while rest:
            low = rest & -rest
            out.add(m ^ low)
            rest ^= low
    return out


def _element_flags(masks: Iterable[int], x: int) -> list[int]:
    """Per mask: 1 if it holds element x, else 0."""
    shift = x - 1
    return [m >> shift & 1 for m in masks]


def _lifted(masks: Iterable[int], x: int) -> tuple[int, ...]:
    """Each mask with element x added."""
    bit = 1 << (x - 1)
    return tuple(m | bit for m in masks)


def _swapped(masks: Iterable[int], x: int, y: int) -> list[int]:
    """Each mask relabeled by the transposition of elements x and y, in
    the order given."""
    bx, by = 1 << (x - 1), 1 << (y - 1)
    both = bx | by
    return [m ^ both if (m & both) in (bx, by) else m for m in masks]


def _cycled(masks: Iterable[int], n: int) -> list[int]:
    """Each mask relabeled by the n-cycle i -> i+1, n -> 1 of [n], in the
    order given."""
    full = (1 << n) - 1
    return [(m << 1 | m >> (n - 1)) & full for m in masks]


def _transposed(masks: Iterable[int], x: int, y: int) -> tuple[int, ...]:
    """The masks relabeled by the transposition of elements x and y, ascending."""
    return tuple(sorted(_swapped(masks, x, y)))


def shadow(family: KFamily) -> KFamily:
    """All (k-1)-subsets contained in at least one member."""
    if family.k < 1:
        raise ValueError("shadow needs k >= 1")
    return KFamily(family.n, family.k - 1, tuple(sorted(_shadow_masks(family.masks))))


def _check_reach(size: int, steps: int, choices: int, kind: str) -> None:
    """Refuse, before enumerating, shadow steps j <= steps whose bound
    size * C(choices, j) on the sets of step j, from a family of size sets,
    exceeds ``SHADOW_BUDGET``."""
    reaches = [(size * binom(choices, j), j) for j in range(1, steps + 1)]
    reach, step = max(reaches, default=(0, 0))
    if reach > SHADOW_BUDGET:
        raise BudgetError(
            f"{kind} step {step} may reach {size} * C({choices}, {step}) = "
            f"{reach} sets, over the shadow budget of {SHADOW_BUDGET}"
        )


def iterated_shadow(family: KFamily, i: int) -> KFamily:
    if not 0 <= i <= family.k:
        raise ValueError("iteration count out of range")
    _check_reach(len(family), i, family.k, "iterated shadow")
    out = family
    for _ in range(i):
        out = shadow(out)
    return out


def upper_shadow(family: KFamily, steps: int = 1) -> KFamily:
    """All (k+steps)-supersets within [n] of some member: the complements of
    the (n-k-steps)-subsets of the members' complements."""
    if steps < 0 or family.k + steps > family.n:
        raise ValueError("upper shadow out of range")
    _check_reach(len(family), steps, family.n - family.k, "upper shadow")
    full = (1 << family.n) - 1
    current = {full ^ m for m in family.masks}
    for _ in range(steps):
        current = _shadow_masks(current)
    return KFamily(family.n, family.k + steps, tuple(sorted(full ^ m for m in current)))


def link(family: KFamily, x: int) -> KFamily:
    """Members containing x, with x removed; a (k-1)-family on the same ground."""
    if not 1 <= x <= family.n:
        raise ValueError("element outside ground set")
    bit = 1 << (x - 1)
    masks = sorted(m ^ bit for m in family.masks if m & bit)
    return KFamily(family.n, family.k - 1, tuple(masks))


def delete_star(family: KFamily, x: int) -> KFamily:
    """Members not containing x."""
    if not 1 <= x <= family.n:
        raise ValueError("element outside ground set")
    bit = 1 << (x - 1)
    return KFamily(family.n, family.k, tuple(m for m in family.masks if not m & bit))


def degree(family: KFamily, x: int) -> int:
    if not 1 <= x <= family.n:
        raise ValueError("element outside ground set")
    bit = 1 << (x - 1)
    return sum(1 for m in family.masks if m & bit)


def min_degree_element(family: KFamily) -> int:
    """Support element of minimum degree, ties broken by smallest label."""
    support = family.support()
    if not support:
        raise ValueError("family has empty support")
    return min(support, key=lambda x: (degree(family, x), x))


def colex_rank(elements: Iterable[int]) -> int:
    """0-based colex rank: sum of C(x_i - 1, i) over the ascending elements."""
    xs = sorted(elements)
    if len(set(xs)) != len(xs) or (xs and xs[0] < 1):
        raise ValueError("need distinct positive elements")
    return sum(binom(x - 1, i) for i, x in enumerate(xs, start=1))


def colex_unrank(rank: int, k: int) -> tuple[int, ...]:
    """Inverse of colex_rank for k-sets."""
    if rank < 0 or k < 0:
        raise ValueError("rank and k must be nonnegative")
    out: list[int] = []
    rem = rank
    for j in range(k, 0, -1):
        x = j
        while binom(x, j) <= rem:
            x += 1
        out.append(x)
        rem -= binom(x - 1, j)
    if rem:
        raise ValueError("rank does not unrank cleanly")
    return tuple(reversed(out))


def initial_segment(n: int, k: int, m: int) -> KFamily:
    """First m sets of C([n], k) in colex order.

    Ascending masks are colex order (``_layer_masks``), so the segment is
    the first m integers with k bits, each one found from the one before by
    Gosper's successor; ``colex_unrank`` is the tests' oracle for it.  A
    segment whose shadow may pass ``SHADOW_BUDGET`` sets, m * k of them, is
    refused before any set is listed.
    """
    _check_ground(n, k)
    if k < 1 or not 0 <= m <= binom(n, k):
        raise ValueError("segment length out of range")
    _check_reach(m, 1, k, "colex segment shadow")
    masks = []
    mask = (1 << k) - 1
    for _ in range(m):
        masks.append(mask)
        low = mask & -mask
        carried = mask + low
        mask = ((carried ^ mask) >> 2) // low | carried
    return KFamily(n, k, tuple(masks))


def join(a: KFamily | Iterable[Iterable[int]], b: KFamily | Iterable[Iterable[int]]) -> KFamily:
    """All unions x | y for x in a, y in b; the unions must share one size."""

    def normalize(fam) -> tuple[int, list[int]]:
        if isinstance(fam, KFamily):
            return fam.n, list(fam.masks)
        sets = [tuple(s) for s in fam]
        n = max((max(s) for s in sets if s), default=1)
        return n, [_mask_of(s, n) for s in sets]

    na, ma = normalize(a)
    nb, mb = normalize(b)
    n = max(na, nb)
    unions = {x | y for x in ma for y in mb}
    if not unions:
        raise ValueError("cannot join empty families")
    sizes = {u.bit_count() for u in unions}
    if len(sizes) != 1:
        raise ValueError(f"joined sets have mixed sizes {sorted(sizes)}")
    return KFamily(n, sizes.pop(), tuple(sorted(unions)))


def compact_support(family: KFamily) -> KFamily:
    """Relabel the support order-preservingly onto [s]."""
    support = family.support()
    relabel = {x: i + 1 for i, x in enumerate(support)}
    s = len(support)
    return KFamily.from_sets(
        max(s, family.k), family.k,
        ([relabel[e] for e in elems] for elems in family.sets()),
    )


def _stable_refine(color: list[int], rows: list[list[tuple[int, int]]]) -> list[int]:
    """Iterate degree/codegree refinement to a fixpoint, rank-compressed.

    color holds one color per support position, and rows[x] the pairs
    (y, co-degree of x and y) over every other position y.  Signatures are
    built from the current ranks and pairwise co-degrees only, so the
    result depends on the abstract structure alone and isomorphic inputs
    refine to corresponding rank colorings.  A position alone in its
    class gets the signature (color,): no other position shares its color,
    so it sorts where its full signature would.  A discrete coloring is
    stable, so it is only rank-compressed.
    """
    classes = len(set(color))
    while classes < len(color):
        shared = {c for c in color if color.count(c) > 1}
        signature = [
            (c, tuple(sorted([(color[y], d) for y, d in row]))) if c in shared else (c,)
            for c, row in zip(color, rows)
        ]
        ranks = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        new = [ranks[sig] for sig in signature]
        if len(ranks) == classes:
            return new
        color, classes = new, len(ranks)
    ranks = {c: i for i, c in enumerate(sorted(color))}
    return [ranks[c] for c in color]


def canonical_form(family: KFamily) -> KFamily:
    """Least relabeled image over structure-respecting relabelings.

    Individualization-refinement search: refine the support coloring by
    degrees and co-degrees, branch over the members of the first class that
    is still ambiguous, and take the least member image over all discrete
    leaves.  Every step is color-driven, so isomorphic families explore
    corresponding search trees and receive equal canonical forms.

    The search is pruned by automorphisms (McKay and Piperno, Practical
    graph isomorphism II, 2014).  A leaf whose image equals that of the
    best leaf so far gives an automorphism g = l1^-1 l2 of the family, with
    l1 and l2 the two leaf labelings.  Refinement commutes with relabeling,
    so at a node whose individualized prefix g fixes pointwise, g maps the
    subtree under child y onto the subtree under g(y), and both give the
    same set of leaf images.  A child in the orbit of an explored child,
    under the automorphisms found so far that fix the prefix, is skipped,
    and the least image stays the same.  The leaf budget counts the leaves
    explored.  The same tree walked to every leaf without pruning,
    ``_unpruned_canonical_form`` in tests/test_families.py, is the oracle
    the tests compare it with.
    """
    support = family.support()
    s = len(support)
    if s > ISO_SUPPORT_LIMIT:
        raise ValueError(f"support larger than the {ISO_SUPPORT_LIMIT}-element search bound")
    if s == 0:
        return KFamily(max(family.k, 1) if family.k else 1, family.k, family.masks)
    if len(family) == binom(s, k := family.k):
        return KFamily(s, k, tuple(_layer_masks(s, k)))
    # per support position: one 16-bit field per member, 1 where the member
    # holds it; co-degrees are popcounts of their AND, and a leaf's member
    # images (below 2^10) are the fields of the sum of these, each shifted
    # by its position's label
    spread = [
        sum(1 << 16 * i for i, m in enumerate(family.masks) if m >> (x - 1) & 1)
        for x in support
    ]
    rows = [
        [(y, (spread[x] & spread[y]).bit_count()) for y in range(s) if y != x]
        for x in range(s)
    ]
    leaves = 0
    best: tuple[tuple[int, ...], list[int]] | None = None  # image, labels
    automorphisms: list[list[int]] = []

    def descend(color: list[int], prefix: list[int]) -> None:
        nonlocal leaves, best
        order = sorted(color)
        cell = next((c for c, d in zip(order, order[1:]) if c == d), None)
        if cell is None:
            leaves += 1
            if leaves > _ISO_BUDGET:
                raise BudgetError(
                    f"canonical form search exceeds its budget of {_ISO_BUDGET} leaves"
                )
            packed = sum([field << c for field, c in zip(spread, color)])
            image = tuple(sorted(array("H", packed.to_bytes(2 * len(family), sys.byteorder))))
            if best is None or image < best[0]:
                best = image, color
            elif image == best[0]:
                # the automorphism best_labels^-1 color, a map on positions
                inverse = [0] * s
                for p, c in enumerate(best[1]):
                    inverse[c] = p
                automorphisms.append([inverse[c] for c in color])
            return
        explored: list[int] = []
        for chosen in [x for x, c in enumerate(color) if c == cell]:
            if explored and automorphisms and _in_orbit(chosen, explored, prefix, automorphisms):
                continue
            explored.append(chosen)
            # chosen keeps the cell's rank; its other members and every later
            # class move up one
            split = [c + (c > cell or c == cell and x != chosen) for x, c in enumerate(color)]
            descend(_stable_refine(split, rows), prefix + [chosen])

    descend(_stable_refine([bits.bit_count() for bits in spread], rows), [])
    if best is None:
        raise RuntimeError("canonical form search reached no leaf")
    return KFamily(s, family.k, best[0])


def _in_orbit(
    x: int, explored: list[int], prefix: list[int], automorphisms: list[list[int]]
) -> bool:
    """Whether x lies in the orbit of an explored position under the group
    generated by the automorphisms that fix every prefix position."""
    fixing = [g for g in automorphisms if [g[p] for p in prefix] == prefix]
    orbit = {x}
    frontier = [x]
    for y in frontier:
        for g in fixing:
            if g[y] not in orbit:
                orbit.add(g[y])
                frontier.append(g[y])
    return not orbit.isdisjoint(explored)


def are_isomorphic(a: KFamily, b: KFamily) -> bool:
    """True iff some relabeling of the supports maps a onto b."""
    if a.k != b.k or len(a) != len(b):
        return False
    sa, sb = a.support(), b.support()
    if len(sa) != len(sb):
        return False
    da = sorted(degree(a, x) for x in sa)
    db = sorted(degree(b, x) for x in sb)
    if da != db:
        return False
    return canonical_form(a) == canonical_form(b)


def to_dict(family: KFamily) -> dict:
    return {"n": family.n, "k": family.k, "sets": [list(s) for s in family.sets()]}


def _is_int(value) -> bool:
    # JSON true and false decode to bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def from_dict(data: dict) -> KFamily:
    try:
        n, k, sets = data["n"], data["k"], data["sets"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed family object: {exc}") from None
    if not (_is_int(n) and _is_int(k) and 1 <= k <= n <= MAX_GROUND):
        raise ValueError(f"need integers 1 <= k <= n <= {MAX_GROUND}")
    if not (isinstance(sets, list) and all(isinstance(x, list) for x in sets)):
        raise ValueError("sets must be a list of lists")
    for x in sets:
        for e in x:
            if not _is_int(e):
                raise ValueError(f"set elements must be integers, got {e!r}")
    fam = KFamily.from_sets(n, k, sets)
    if len(fam) != len(sets):
        raise ValueError("duplicate sets in family")
    return fam


def write_family(family: KFamily, fp: IO[str]) -> None:
    if family.k < 1:
        raise ValueError("interchange format requires k >= 1")
    json.dump(to_dict(family), fp, sort_keys=True)
    fp.write("\n")


def read_family(fp: IO[str]) -> KFamily:
    return from_dict(json.load(fp))
