"""Shadow-minimization bounds, extremality tests, characterization, enumeration.

The exhaustive machinery indexes families of a small layer C([n], k) by the
bit pattern of chosen positions and keeps one shared table of shadow masks,
so full sweeps over every subfamily are flat table loops.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .exact import Seq, binom, decompose, lex_cmp, seq_minus, seq_value
from .families import (
    BudgetError,
    KFamily,
    canonical_form,
    degree,
    delete_star,
    link,
    min_degree_element,
    shadow,
)

SWEEP_LAYER_LIMIT = 20  # 2^20 table entries; larger layers take slower paths
COMBINATION_BUDGET = 3_000_000


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


def is_extremal(family: KFamily) -> bool:
    """True iff the shadow meets the lower bound exactly."""
    if not family.masks:
        raise ValueError("extremality is undefined for the empty family")
    if family.k == 1:
        return True  # the shadow is the single empty set
    return len(shadow(family)) == kk_bound(len(family), family.k, 1)


def shadow_chain_check(family: KFamily) -> bool:
    """For an extremal family, all iterated shadows must meet their bounds."""
    if not is_extremal(family):
        raise ValueError("shadow chain check requires an extremal family")
    a = decompose(len(family), family.k)
    current = family
    for i in range(1, family.k):
        current = shadow(current)
        if len(current) != seq_value(a, family.k - i):
            return False
    return True


@dataclass
class ElementCheck:
    """Outcome of the characterization conditions at one support element."""

    x: int
    link_size: int
    deleted_size: int
    threshold: int
    branch: str  # "strict" | "equality" | "neither"
    inclusion: bool | None = None
    deleted_extremal: bool | None = None
    link_extremal: bool | None = None
    numeric: bool | None = None
    ok: bool = False


@dataclass
class CharacterizationReport:
    n: int
    k: int
    size: int
    cascade: tuple[int, ...]
    elements: list[ElementCheck]
    verdict: bool
    witnesses: tuple[int, ...]

    def element(self, x: int) -> ElementCheck:
        for check in self.elements:
            if check.x == x:
                return check
        raise KeyError(x)


def _check_element(family: KFamily, x: int, a: Seq) -> ElementCheck:
    k = family.k
    m = len(family)
    lk = link(family, x)
    rest = delete_star(family, x)
    threshold = seq_value(seq_minus(a, 1), k)
    check = ElementCheck(
        x=x,
        link_size=len(lk),
        deleted_size=len(rest),
        threshold=threshold,
        branch="neither",
    )
    if len(rest) < threshold:
        return check
    shadow_rest = shadow(rest) if rest.masks else KFamily(family.n, k - 1, ())
    link_masks = set(lk.masks)
    rest_masks = set(shadow_rest.masks)
    if len(rest) > threshold:
        check.branch = "strict"
        check.inclusion = link_masks <= rest_masks
        check.deleted_extremal = is_extremal(rest)
        check.link_extremal = is_extremal(lk)
        b = decompose(len(rest), k)
        c = decompose(len(lk), k - 1)
        check.numeric = seq_value(a, k - 1) == seq_value(b, k - 1) + seq_value(c, k - 2)
        check.ok = bool(
            check.inclusion
            and check.deleted_extremal
            and check.link_extremal
            and check.numeric
        )
    else:
        check.branch = "equality"
        check.inclusion = rest_masks <= link_masks
        check.link_extremal = is_extremal(lk)
        check.ok = bool(check.inclusion and check.link_extremal)
    return check


def characterize(family: KFamily) -> CharacterizationReport:
    """Evaluate the recursive extremality conditions at every support element.

    Requires k >= 2 and full support: every element of [n] must have positive
    degree.  The overall verdict is the conjunction over elements; any single
    passing element already certifies extremality.
    """
    if family.k < 2:
        raise ValueError("characterization requires k >= 2")
    if not family.masks:
        raise ValueError("characterization requires a nonempty family")
    if family.support() != tuple(range(1, family.n + 1)):
        raise ValueError("support gap: some element of [n] has degree zero")
    a = decompose(len(family), family.k)
    elements = [_check_element(family, x, a) for x in range(1, family.n + 1)]
    return CharacterizationReport(
        n=family.n,
        k=family.k,
        size=len(family),
        cascade=a.terms,
        elements=elements,
        verdict=all(e.ok for e in elements),
        witnesses=tuple(e.x for e in elements if e.ok),
    )


def certify_by_witness(family: KFamily, x: int) -> bool:
    """Single-element certificate: conditions holding at x alone prove extremality."""
    if family.k < 2:
        raise ValueError("characterization requires k >= 2")
    if family.support() != tuple(range(1, family.n + 1)):
        raise ValueError("support gap: some element of [n] has degree zero")
    a = decompose(len(family), family.k)
    return _check_element(family, x, a).ok


def min_degree_bound_check(family: KFamily) -> bool:
    """Deleting a minimum-degree star leaves a cascade at least a - 1."""
    if len(family) <= 1 or not (family.n > family.k > 1):
        raise ValueError("need |S| > 1 and n > k > 1")
    if family.support() != tuple(range(1, family.n + 1)):
        raise ValueError("support gap: some element of [n] has degree zero")
    x = min_degree_element(family)
    a = decompose(len(family), family.k)
    b = decompose(len(family) - degree(family, x), family.k)
    return bool(b.terms) and lex_cmp(b, seq_minus(a, 1)) >= 0


class _Layer:
    """Shared tables for exhaustive sweeps over subfamilies of C([n], k)."""

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n")
        self.n, self.k = n, k
        self.masks = [sum(1 << (e - 1) for e in s) for s in combinations(range(1, n + 1), k)]
        self.masks.sort()
        self.size = len(self.masks)
        subs = [sum(1 << (e - 1) for e in s) for s in combinations(range(1, n + 1), k - 1)]
        subs.sort()
        self.sub_index = {m: i for i, m in enumerate(subs)}
        self.sub_masks = subs
        self.shed = []
        for m in self.masks:
            bits = 0
            rest = m
            while rest:
                low = rest & -rest
                bits |= 1 << self.sub_index[m ^ low]
                rest ^= low
            self.shed.append(bits)
        self._shadow_table: list[int] | None = None
        self._pop_table: list[int] | None = None
        self._member: list[int] | None = None

    def tables(self) -> tuple[list[int], list[int]]:
        """Per-subfamily shadow masks and member counts, built on first use."""
        if self._shadow_table is None:
            if self.size > SWEEP_LAYER_LIMIT:
                raise BudgetError(
                    f"layer of {self.size} sets exceeds the sweep limit of "
                    f"{SWEEP_LAYER_LIMIT} sets"
                )
            total = 1 << self.size
            shed = self.shed
            low_index = {1 << i: i for i in range(self.size)}
            sh = [0] * total
            pop = [0] * total
            for f in range(1, total):
                low = f & -f
                rest = f ^ low
                sh[f] = sh[rest] | shed[low_index[low]]
                pop[f] = pop[rest] + 1
            self._shadow_table = sh
            self._pop_table = pop
        return self._shadow_table, self._pop_table

    def member(self) -> list[int]:
        """Per element x of [n], at index x: the layer positions whose set holds x."""
        if self._member is None:
            self._member = [0] + [
                sum(1 << i for i, mask in enumerate(self.masks) if mask >> (x - 1) & 1)
                for x in range(1, self.n + 1)
            ]
        return self._member

    def family(self, pattern: int) -> KFamily:
        chosen = [self.masks[i] for i in range(self.size) if pattern >> i & 1]
        return KFamily(self.n, self.k, tuple(chosen))


@lru_cache(maxsize=8)
def _layer(n: int, k: int) -> _Layer:
    return _Layer(n, k)


@lru_cache(maxsize=8)
def _min_shadow_table(n: int, k: int) -> list[int]:
    """min |shadow| per family size over all subfamilies of C([n], k)."""
    layer = _layer(n, k)
    sh, pop = layer.tables()
    best = [0] + [1 << 62] * layer.size
    for f in range(1, 1 << layer.size):
        count = sh[f].bit_count()
        m = pop[f]
        if count < best[m]:
            best[m] = count
    return best


def brute_force_min_shadow(n: int, k: int, m: int, budget: int | None = None) -> int:
    """Minimum shadow size over all m-subsets of C([n], k), by enumeration."""
    layer_size = binom(n, k)
    if not 1 <= m <= layer_size:
        raise ValueError("family size out of range")
    if k == 1:
        return 1
    if layer_size <= SWEEP_LAYER_LIMIT:
        return _min_shadow_table(n, k)[m]
    # math.comb: the count is compared, never used, so it may leave 128 bits
    count = comb(layer_size, m)
    limit = COMBINATION_BUDGET if budget is None else budget
    if count > limit:
        raise BudgetError(
            f"C({layer_size}, {m}) = {count} combinations exceed the "
            f"enumeration budget of {limit}"
        )
    layer = _layer(n, k)
    best: int | None = None
    for chosen in combinations(layer.shed, m):
        acc = 0
        for bits in chosen:
            acc |= bits
        count = acc.bit_count()
        if best is None or count < best:
            best = count
    if best is None:
        raise RuntimeError("no combination was enumerated")
    return best


def _shadow_bounds(k: int, top: int) -> list[int]:
    """The minimum shadow size of an m-member k-family, for m = 0..top.

    At k = 1 the shadow of any nonempty family is the single empty set.
    """
    if k == 1:
        return [0] + [1] * top
    return [kk_bound(m, k, 1) for m in range(top + 1)]


@lru_cache(maxsize=4)
def _extremal_patterns_by_size(n: int, k: int) -> dict[int, list[int]]:
    """All extremal subfamilies of the layer, grouped by size, as bit patterns."""
    layer = _layer(n, k)
    sh, pop = layer.tables()
    out: dict[int, list[int]] = {m: [] for m in range(1, layer.size + 1)}
    bounds = _shadow_bounds(k, layer.size)
    for f in range(1, 1 << layer.size):
        if sh[f].bit_count() == bounds[pop[f]]:
            out[pop[f]].append(f)
    return out


def _enum_exhaustive(n: int, k: int, m: int) -> list[KFamily]:
    layer = _layer(n, k)
    patterns = _extremal_patterns_by_size(n, k).get(m, [])
    return [layer.family(p) for p in patterns]


@lru_cache(maxsize=None)
def _enum_recursive(n: int, k: int, m: int) -> frozenset[tuple[int, ...]]:
    """Extremal families on ground [n] generated by the recursive branches.

    A family either avoids n entirely, or splits at n into a deleted part B
    and a link L; the strict branch needs both parts extremal with the
    numeric identity, the equality branch needs an extremal L covering the
    shadow of an otherwise arbitrary B.
    """
    if m == 0:
        return frozenset({()})
    if k > n or m > binom(n, k):
        return frozenset()
    if k == 1:
        return frozenset(
            tuple(sorted(sum(1 << (e - 1) for e in (x,)) for x in chosen))
            for chosen in combinations(range(1, n + 1), m)
        )
    if m == 1:
        return frozenset(
            (sum(1 << (e - 1) for e in s),) for s in combinations(range(1, n + 1), k)
        )
    out: set[tuple[int, ...]] = set(_enum_recursive(n - 1, k, m))
    a = decompose(m, k)
    threshold = seq_value(seq_minus(a, 1), k)
    top_bit = 1 << (n - 1)
    bound_m = seq_value(a, k - 1)
    for d in range(1, min(binom(n - 1, k - 1), m) + 1):
        rest = m - d
        if rest > threshold:
            link_part = seq_value(decompose(d, k - 1), k - 2)
            if bound_m != kk_bound(rest, k, 1) + link_part:
                continue
            links = _enum_recursive(n - 1, k - 1, d)
            deletes = _enum_recursive(n - 1, k, rest)
            for lmask in links:
                lset = set(lmask)
                for bmask in deletes:
                    if not _shadow_covers(bmask, lset, k):
                        continue
                    fam = tuple(sorted(bmask + tuple(x | top_bit for x in lmask)))
                    out.add(fam)
        elif rest == threshold:
            links = _enum_recursive(n - 1, k - 1, d)
            for lmask in links:
                lset = set(lmask)
                universe = _covered_supersets(lset, n - 1, k)
                if len(universe) < rest:
                    continue
                count = comb(len(universe), rest)
                if count > COMBINATION_BUDGET:
                    raise BudgetError(
                        f"equality branch: C({len(universe)}, {rest}) = {count} "
                        f"combinations exceed the budget of {COMBINATION_BUDGET}"
                    )
                for chosen in combinations(universe, rest):
                    fam = tuple(sorted(chosen + tuple(x | top_bit for x in lmask)))
                    out.add(fam)
    return frozenset(out)


def _shadow_covers(bmask: tuple[int, ...], link_masks: set[int], k: int) -> bool:
    """True iff every link set lies in the shadow of the deleted part."""
    covered: set[int] = set()
    for m in bmask:
        rest = m
        while rest:
            low = rest & -rest
            covered.add(m ^ low)
            rest ^= low
    return link_masks <= covered


def _covered_supersets(link_masks: set[int], n: int, k: int) -> list[int]:
    """k-sets of [n] all of whose (k-1)-subsets lie in the link."""
    out = []
    for s in combinations(range(1, n + 1), k):
        m = sum(1 << (e - 1) for e in s)
        rest = m
        good = True
        while rest:
            low = rest & -rest
            if m ^ low not in link_masks:
                good = False
                break
            rest ^= low
        if good:
            out.append(m)
    return out


def enumerate_extremal(
    n: int, k: int, m: int, up_to_iso: bool = False, method: str = "exhaustive"
) -> list[KFamily]:
    """All extremal m-subsets of C([n], k); canonical forms if up_to_iso."""
    if not 1 <= m <= binom(n, k):
        raise ValueError("family size out of range")
    if method == "exhaustive":
        families = _enum_exhaustive(n, k, m)
    elif method == "recursive":
        if n > 10:
            raise BudgetError("recursive enumeration bounded at n <= 10")
        families = [
            KFamily(n, k, masks) for masks in sorted(_enum_recursive(n, k, m))
        ]
        if k > 1:
            families = [f for f in families if is_extremal(f)]
    else:
        raise ValueError(f"unknown method {method!r}")
    return _iso_classes(families) if up_to_iso else families


def _iso_classes(families: list[KFamily]) -> list[KFamily]:
    """One canonical form per isomorphism class, in first-seen order.

    Requires distinct families on one ground set [n], closed under every
    relabeling of [n]; the full extremal list of one size is, since
    relabeling preserves extremality.  The classes are then the orbits of
    S_n on the list.  The adjacent transpositions (x x+1) generate S_n, so
    joining each family to its image under each of them leaves one
    union-find tree per orbit, rooted at the orbit's first family, and only
    the roots are canonicalized.  An image missing from the list raises
    ``RuntimeError``, which also checks that the enumerator was complete.
    ``test_iso_classes_match_dedup_oracle`` compares the result with the
    per-family ``canonical_form`` deduplication it replaces.
    """
    if not families:
        return []
    index = {family.masks: i for i, family in enumerate(families)}
    parent = list(range(len(families)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for x in range(families[0].n - 1):
        low, high = 1 << x, 1 << (x + 1)
        both = low | high
        for i, family in enumerate(families):
            image = tuple(
                sorted(m ^ both if (m & both) in (low, high) else m for m in family.masks)
            )
            j = index.get(image)
            if j is None:
                raise RuntimeError("family list is not closed under relabeling")
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    return [canonical_form(families[r]) for r in range(len(families)) if parent[r] == r]


def uniqueness_predicate(n: int, k: int, m: int) -> bool:
    """True iff the colex segment should be the unique extremal family.

    Encodes the answer to the uniqueness question of Füredi and Griggs
    (Families of finite sets with minimum shadows, Combinatorica 6, 1986)
    and Mörs (A generalization of a theorem of Kruskal, Graphs Combin. 1,
    1985) on the ground set [n]: the m-subsets of C([n], k) with minimum
    shadow form a single isomorphism class, that of the colex segment, iff
    the cascade decomposition of m has fewer than k terms, or m is one less
    than C(n', k) for some k < n' <= n.  ``extremal_iso_classes`` checks it
    exhaustively at (6, 3).  The statement is for k >= 2; at k = 1 every
    size has one class, which the rule would deny at m = n.
    """
    if k < 2:
        raise ValueError("the uniqueness statement needs k >= 2")
    if not 0 < m <= binom(n, k):
        raise ValueError("family size out of range")
    a = decompose(m, k)
    if len(a) < k:
        return True
    return any(m == binom(np, k) - 1 for np in range(k + 1, n + 1))


# ---------------------------------------------------------------------------
# flat-table sweeps over every subfamily of one layer

def _fast_characterize_verdict(n: int, k: int) -> Callable[[int], bool]:
    """The characterization verdict for subfamilies of C([n], k), k >= 2.

    Returns a function of a layer bit pattern.  It mirrors ``characterize``
    exactly, but over the support of the family (so implicitly on the
    support-compacted ground set) and purely with table lookups: this
    layer's tables for the family and its deleted parts, and the (n, k-1)
    layer's for the links.  ``characterize`` is the oracle the tests sample
    it against.
    """
    layer = _layer(n, k)
    sh, pop = layer.tables()
    link_shadow, _ = _layer(n, k - 1).tables()
    members = layer.member()[1:]
    # The (n, k-1) layer's positions are this layer's sub_index positions.
    # The shadow of x's star holds each link set S - x, and its other sets
    # all contain x, so masking those out leaves exactly the link.
    avoid = [
        sum(1 << i for sub, i in layer.sub_index.items() if not sub >> x & 1)
        for x in range(n)
    ]
    star = list(zip(members, avoid))
    bound = _shadow_bounds(k, layer.size)
    link_bound = _shadow_bounds(k - 1, layer.size)
    threshold = [0] + [
        seq_value(seq_minus(decompose(m, k), 1), k) for m in range(1, layer.size + 1)
    ]

    def verdict(pattern: int) -> bool:
        m = pop[pattern]
        thr = threshold[m]
        bound_m = bound[m]
        for member, avoid_x in star:
            chosen = pattern & member
            if not chosen:
                continue  # x lies outside the support
            d = pop[chosen]
            rest = m - d
            if rest < thr:
                return False
            link_mask = sh[chosen] & avoid_x
            if link_shadow[link_mask].bit_count() != link_bound[d]:
                return False  # link not extremal
            rest_shadow = sh[pattern ^ chosen]
            if rest > thr:
                if link_mask & ~rest_shadow:
                    return False  # link not inside the deleted part's shadow
                if rest_shadow.bit_count() != bound[rest]:
                    return False  # deleted part not extremal
                if bound_m != bound[rest] + link_bound[d]:
                    return False  # numeric identity fails
            elif rest_shadow & ~link_mask:
                return False  # deleted part's shadow escapes the link
        return True

    return verdict


def characterization_sweep(n: int, k: int = 3) -> dict:
    """Compare the characterization verdict with direct extremality for every
    nonempty subfamily of C([n], k), n > k >= 2; returns counts and any
    mismatches."""
    if not n > k >= 2:
        raise ValueError("the characterization sweep needs n > k >= 2")
    verdict = _fast_characterize_verdict(n, k)
    layer = _layer(n, k)
    sh, pop = layer.tables()
    bound = _shadow_bounds(k, layer.size)
    mismatches: list[int] = []
    extremal_count = 0
    total = 1 << layer.size
    for pattern in range(1, total):
        extremal = sh[pattern].bit_count() == bound[pop[pattern]]
        if extremal:
            extremal_count += 1
        if verdict(pattern) != extremal:
            mismatches.append(pattern)
    return {
        "n": n,
        "k": k,
        "checked": total - 1,
        "extremal": extremal_count,
        "mismatches": mismatches,
    }


def extremal_iso_classes(n: int, k: int, m: int) -> list[KFamily]:
    """Isomorphism classes of extremal m-subsets of C([n], k), as canonical forms."""
    return enumerate_extremal(n, k, m, up_to_iso=True)


def min_degree_sweep(n: int, k: int) -> int:
    """Check the minimum-degree deletion bound over every admissible subfamily;
    returns the number checked, raising on the first violation.

    The bound depends only on the family size m and the minimum degree d, so
    it is decided once per (m, d); ``min_degree_bound_check`` is the
    family-at-a-time oracle the tests compare against.
    """
    if not n > k > 1:
        raise ValueError("the minimum-degree bound needs n > k > 1")
    layer = _layer(n, k)
    _, pop = layer.tables()
    members = layer.member()[1:]
    ok = [[False] * (m + 1) for m in range(layer.size + 1)]
    for m in range(2, layer.size + 1):
        floor = seq_minus(decompose(m, k), 1)
        for d in range(1, m + 1):
            b = decompose(m - d, k)
            ok[m][d] = bool(b.terms) and lex_cmp(b, floor) >= 0
    checked = 0
    for pattern in range(1, 1 << layer.size):
        m = pop[pattern]
        if m <= 1:
            continue
        dmin = min([pop[pattern & mx] for mx in members])
        if dmin == 0:
            continue  # the bound is stated for full support
        if not ok[m][dmin]:
            raise RuntimeError(f"minimum-degree bound failed at pattern {pattern}")
        checked += 1
    return checked
