"""Explicit families: forbidden-pair constructions, block unions, perturbed segments."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .exact import BudgetError, binom, decompose, kk_bound, seq_value
from .families import (
    MAX_GROUND,
    KFamily,
    _check_ground,
    _layer_masks,
    _mask_of,
    _transposed,
    are_isomorphic,
    colex_rank,
    colex_unrank,
    compact_support,
    initial_segment,
    join,
    shadow,
)

MATERIALIZE_LIMIT = 1_000_000  # k-sets of [n] one forbidden-pair materialization may list


@dataclass(frozen=True)
class ForbiddenPairSpec:
    """Parameters for the family of k-sets avoiding a list of forbidden pairs.

    ``pairs`` are 2-subsets of [n]; an optional explicit deletion family (on
    the ground set away from the pairs) or a regular deletion shape (t, r)
    thins the family without changing its shadow.
    """

    n: int
    k: int
    pairs: tuple[tuple[int, int], ...]
    deletion: KFamily | None = None
    regular_deletion: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        seen = set()
        for pair in self.pairs:
            x, y = pair
            if not (1 <= x < y <= self.n):
                raise ValueError(f"bad pair {pair}")
            if pair in seen:
                raise ValueError(f"repeated pair {pair}")
            seen.add(pair)

    @classmethod
    def complete_pairs(
        cls, n: int, k: int, m: int, regular_deletion: tuple[int, int] | None = None
    ) -> "ForbiddenPairSpec":
        """All pairs inside [m]: the shape with closed-form cardinalities.
        Pairs past [n] are refused before the C(m, 2) pairs are listed, with
        the first of them in listing order."""
        if m > max(n, 1):
            raise ValueError(f"bad pair {(1, max(n, 1) + 1)}")
        return cls(
            n, k, tuple(combinations(range(1, m + 1), 2)), None, regular_deletion
        )


def _built(n: int, k: int, expected: int, *parts: KFamily) -> KFamily:
    """The k-family on [n] of every set of the parts, which must number
    ``expected``: parts whose sets collide are a fault in this module, not
    in its input."""
    family = KFamily(n, k, tuple(sorted(set().union(*(p.masks for p in parts)))))
    if len(family) != expected:
        raise RuntimeError(f"construction built {len(family)} sets, expected {expected}")
    return family


def regular_family(ground_size: int, k: int, r: int) -> KFamily:
    """r cyclic-shift block partitions of the ground cycle; r-regular k-sets."""
    if ground_size % k:
        raise ValueError("k must divide the ground size")
    t = ground_size // k
    if not 1 <= r <= min(k, t):
        raise ValueError("need 1 <= r <= min(k, ground_size / k)")
    sets = []
    for shift in range(r):
        for block in range(t):
            sets.append(
                [((block * k + s + shift) % ground_size) + 1 for s in range(k)]
            )
    return _built(ground_size, k, t * r, KFamily.from_sets(ground_size, k, sets))


def forbidden_pair_family(spec: ForbiddenPairSpec) -> KFamily:
    """Materialize the k-sets of [n] containing none of the forbidden pairs.

    The whole layer of C(n, k) sets is listed and filtered, so a layer past
    ``MATERIALIZE_LIMIT`` is refused with ``BudgetError`` before any set is
    listed, after the ground size and the deletion's shape are checked.
    """
    n, k = spec.n, spec.k
    _check_ground(n, k)
    deletion = spec.deletion
    if spec.regular_deletion is not None:
        if deletion is not None:
            raise ValueError("give either an explicit or a regular deletion")
        t, r = spec.regular_deletion
        m = _pair_support_size(spec)
        if n != t * k + m:
            raise ValueError("regular deletion needs n = t*k + m")
        shifted = regular_family(t * k, k, r)
        deletion = KFamily.from_sets(
            n, k, ([e + m for e in s] for s in shifted.sets())
        )
    if binom(n, k) > MATERIALIZE_LIMIT:
        raise BudgetError(
            f"materializing lists all C({n}, {k}) = {binom(n, k)} sets, "
            f"over the materialize limit of {MATERIALIZE_LIMIT}"
        )
    pair_masks = [_mask_of(pair, n) for pair in spec.pairs]
    keep = [mask for mask in _layer_masks(n, k) if all(mask & pm != pm for pm in pair_masks)]
    family = KFamily(n, k, tuple(keep))
    if deletion is not None:
        pair_support = 0
        for pm in pair_masks:
            pair_support |= pm
        del_masks = set(deletion.masks)
        members = set(family.masks)
        for dm in del_masks:
            if dm & pair_support:
                raise ValueError("deletion must avoid the forbidden-pair support")
            if dm not in members:
                raise ValueError("deletion is not inside the family")
        family = KFamily(n, k, tuple(m for m in family.masks if m not in del_masks))
    return family


def _pair_support_size(spec: ForbiddenPairSpec) -> int:
    support = {e for pair in spec.pairs for e in pair}
    m = len(support)
    if support != set(range(1, m + 1)) or spec.pairs != tuple(
        combinations(range(1, m + 1), 2)
    ):
        raise ValueError("closed-form cardinalities need all pairs inside [m]")
    return m


def _at_most_one_count(n: int, k: int, m: int) -> int:
    """|k-sets of [n] with at most one element in [m]| = C(n-m, k) + m*C(n-m, k-1)."""
    return binom(n - m, k) + m * binom(n - m, k - 1)


def forbidden_pair_cardinalities(spec: ForbiddenPairSpec) -> dict:
    """Closed-form cardinalities, cascades, and extremality verdicts.

    Works at any ground size and k >= 3; requires the all-pairs-inside-[m]
    shape.  The report covers the undeleted family, the optional regular
    deletion, and the per-element split into link and deleted star for both
    element classes (inside and outside [m]).
    """
    n, k = spec.n, spec.k
    m = _pair_support_size(spec)
    if m < 3 or n < m + 3:
        raise ValueError("need m >= 3 and n >= m + 3")
    if spec.deletion is not None:
        raise ValueError("the arithmetic report needs a regular deletion shape")
    # the link's shadow cascade is taken at level k - 2
    if k < 3:
        raise ValueError("the arithmetic report needs k >= 3")

    def entry(size: int, shadow_size: int, level: int) -> dict:
        return {
            "size": size,
            "cascade": list(decompose(size, level).terms),
            "shadow": shadow_size,
            "shadow_cascade": list(decompose(shadow_size, level - 1).terms),
            "extremal": shadow_size == kk_bound(size, level, 1),
        }

    base_size = _at_most_one_count(n, k, m)
    base_shadow = _at_most_one_count(n, k - 1, m)
    report: dict = {
        "n": n,
        "k": k,
        "m": m,
        "inclusion_exclusion": binom(n, k)
        - sum(binom(m, i) * binom(n - m, k - i) for i in range(2, k + 1)),
        "base": entry(base_size, base_shadow, k),
    }
    tr = 0
    if spec.regular_deletion is not None:
        t, r = spec.regular_deletion
        if n != t * k + m:
            raise ValueError("regular deletion needs n = t*k + m")
        if not 1 <= r <= min(k, t):
            raise ValueError("need 1 <= r <= min(k, t)")
        tr = t * r
        report["deletion"] = {"t": t, "r": r, "size": tr}
        report["thinned"] = entry(base_size - tr, base_shadow, k)

    def element_entry(x_in_pairs: bool) -> dict:
        mm = m - 1 if x_in_pairs else m
        link_size = _at_most_one_count(n - 1, k - 1, mm)
        link_shadow = _at_most_one_count(n - 1, k - 2, mm)
        rest_size = _at_most_one_count(n - 1, k, mm)
        rest_shadow = _at_most_one_count(n - 1, k - 1, mm)
        if tr:
            if x_in_pairs:
                rest_size -= tr
            else:
                link_size -= spec.regular_deletion[1]
                rest_size -= tr - spec.regular_deletion[1]
        total = report["thinned"] if tr else report["base"]
        out = {
            "link": entry(link_size, link_shadow, k - 1),
            "deleted": entry(rest_size, rest_shadow, k),
        }
        out["numeric_identity"] = kk_bound(total["size"], k, 1) == kk_bound(
            rest_size, k, 1
        ) + seq_value(decompose(link_size, k - 1), k - 2)
        return out

    report["element_outside_pairs"] = element_entry(False)
    report["element_inside_pairs"] = element_entry(True)
    return report


def example_32_family(n: int, k: int, variant: str) -> KFamily:
    """Block unions that fail only the extremality clause at one element.

    Variant "b" glues a full lower layer, a disjoint-interval block joined to
    the top element, and a segment joined to n; the designated element is n
    and the non-extremal part is the deleted star.  Variant "c" replaces the
    joined block by a deliberately non-extremal subfamily of the shadow,
    joined to n + 1, making the link the non-extremal part.  Both families
    have exactly the cardinality of the full k-layer on [n].
    """
    if k < 3 or n <= k:
        raise ValueError("need k >= 3 and n > k")
    if variant not in ("b", "c"):
        raise ValueError("variant must be 'b' or 'c'")
    if (2 * n if variant == "b" else n + 1) > MAX_GROUND:
        raise ValueError("ground set too large")
    m2 = binom(n - 2, k - 2)
    if variant == "b":
        lower = initial_segment(n, k, binom(n - 1, k))
        interval = list(combinations(range(n + 1, 2 * n - 1), k - 1))
        block = join(interval, [[2 * n]])
        tail = join(initial_segment(n, k - 1, m2), [[n]])
        return compact_support(_built(2 * n, k, binom(n, k), lower, block, tail))
    m1 = binom(n - 1, k) + binom(n - 2, k - 1)
    segment = initial_segment(n, k, m1)
    block = join(_nonextremal_subfamily(n, k, m1, m2), [[n + 1]])
    return _built(n + 1, k, binom(n, k), segment, block)


def _nonextremal_subfamily(n: int, k: int, m1: int, size: int) -> KFamily:
    """A non-extremal (k-1)-family of the given size inside the segment shadow.

    Starts from the colex segment of that size and swaps one of its sets for
    a later set of the shadow until extremality breaks; the last position is
    tried first, then earlier ones.
    """
    shadow_len = kk_bound(m1, k, 1)
    if size >= shadow_len:
        raise ValueError("no room to perturb inside the shadow")
    segment = [colex_unrank(rank, k - 1) for rank in range(size)]
    bound = kk_bound(size, k - 1, 1)
    for drop in range(size - 1, -1, -1):
        base = segment[:drop] + segment[drop + 1 :]
        for successor in range(size, shadow_len):
            candidate = KFamily.from_sets(
                n, k - 1, base + [colex_unrank(successor, k - 1)]
            )
            if len(shadow(candidate)) > bound:
                return candidate
    raise RuntimeError("no non-extremal subfamily found in the shadow")


def example_33_family(n: int, k: int) -> KFamily:
    """Disjoint-interval union failing only the inclusion clause.

    A colex segment on [n] plus a segment of (k-1)-sets of the interval
    [n+2, 2n] joined to 2n+1; the designated element is the top label of the
    compacted family.
    """
    if k < 3 or n <= k:
        raise ValueError("need k >= 3 and n > k")
    if 2 * n + 1 > MAX_GROUND:
        raise ValueError("ground set too large")
    m1 = binom(n - 1, k) + binom(n - 2, k - 1)
    m2 = binom(n - 2, k - 2)
    segment = initial_segment(n, k, m1)
    inner = initial_segment(n - 1, k - 1, m2)
    shifted = [[e + n + 1 for e in s] for s in inner.sets()]
    block = join(shifted, [[2 * n + 1]])
    return compact_support(_built(2 * n + 1, k, binom(n, k), segment, block))


@dataclass
class PerturbationResult:
    """Swap of the last segment member for a set off its cascade position.

    ``kind`` is "ok" for a verified new extremal family, "in_segment" when
    the replacement already sits inside the segment (no family is formed),
    or "isomorphic" when the swapped family merely relabels the segment
    (the family is kept for inspection).  Only "ok" results carry the
    guarantee of a non-isomorphic extremal family with the segment's shadow:
    ``perturbed_colex`` raises rather than return "ok" unverified.
    """

    segment: KFamily
    removed: tuple[int, ...]
    added: tuple[int, ...]
    kind: str
    family: KFamily | None = None

    @property
    def degenerate(self) -> bool:
        return self.kind != "ok"


def perturbed_colex(n: int, k: int, m: int) -> PerturbationResult:
    """Perturb the length-m colex segment along its last cascade diagonal.

    Requires the cascade of m to have full length k and its last diagonal to
    start strictly after index 0 (otherwise the segment is unique anyway).
    The last member trades the element at the diagonal's start for the
    successor of the smallest cascade entry.  Both failure modes are tagged
    results, not errors: the replacement can land inside the segment, and an
    off-segment replacement can still relabel the segment, because swapping
    the two smallest-cascade labels fixes everything else.  That
    transposition is tried first as a certificate; otherwise
    ``are_isomorphic`` decides, and raises ``ValueError`` when it would need
    a canonical search over more than ``ISO_SUPPORT_LIMIT`` elements.
    Desk-scale scans show every admissible instance lands in one of the two;
    genuinely new extremal classes at these sizes come from enumeration or
    the forbidden-pair constructions instead.
    """
    a = decompose(m, k)
    if len(a.terms) != k:
        raise ValueError("the perturbation needs a full-length cascade")
    terms = a.terms
    alpha = terms[k - 1]
    r = next(i for i in range(k) if terms[i] - (k - i) == alpha - 1)
    if r == 0:
        raise ValueError(
            "the whole cascade sits on one diagonal; the segment is unique here"
        )
    x_set = tuple(sorted([t + 1 for t in terms[:-1]] + [alpha]))
    if x_set[-1] > n:
        raise ValueError("segment does not fit the ground set")
    removed_elem = terms[r] + 1 if r <= k - 2 else alpha
    added_elem = alpha + 1
    x_new = tuple(sorted(set(x_set) - {removed_elem} | {added_elem}))
    segment = initial_segment(n, k, m)
    if colex_rank(x_set) != m - 1:
        raise RuntimeError(f"{x_set} is not the last set of the segment")
    if colex_rank(x_new) < m:
        return PerturbationResult(
            segment=segment, removed=x_set, added=x_new, kind="in_segment"
        )
    swapped = [s for s in segment.sets() if s != x_set] + [x_new]
    family = _built(n, k, m, KFamily.from_sets(n, k, swapped))
    if shadow(family).masks != shadow(segment).masks:
        raise RuntimeError("perturbation changed the shadow")
    relabels = _transposed(family.masks, removed_elem, added_elem) == segment.masks
    kind = "isomorphic" if relabels or are_isomorphic(family, segment) else "ok"
    return PerturbationResult(
        segment=segment, removed=x_set, added=x_new, kind=kind, family=family
    )
