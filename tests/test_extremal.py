"""Bounds, extremality, characterization, and enumeration."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import astuple
from itertools import combinations, permutations
from math import comb

import pytest

from shadowlab.exact import binom, decompose, lex_cmp, seq_minus, seq_value
from shadowlab.families import (
    BudgetError,
    KFamily,
    _transposed,
    are_isomorphic,
    canonical_form,
    initial_segment,
    shadow,
)
from shadowlab import extremal
from shadowlab.extremal import (
    _clause_blocks,
    _enum_recursive,
    _layer,
    _orbit_classes,
    _table_blocks,
    brute_force_min_shadow,
    certify_by_witness,
    characterization_sweep,
    characterize,
    enumerate_extremal,
    extremal_class_counts,
    extremal_iso_classes,
    is_extremal,
    kk_bound,
    min_degree_bound_check,
    min_degree_sweep,
    shadow_chain_check,
    uniqueness_predicate,
)
from shadowlab.inequalities import equality_splits, split_profile


def every_size(n, k):
    """The extremal patterns of C([n], k) of every size, as the sweeps list
    them."""
    return extremal._extremal_patterns(n, k, range(1, binom(n, k) + 1))


def full_layer(n, k):
    return KFamily.from_sets(n, k, combinations(range(1, n + 1), k))


def stars(layer):
    """Per element x of [n], at index x - 1: the layer positions whose set
    holds x, as a bit pattern."""
    return [
        sum(1 << i for i, mask in enumerate(layer.masks) if mask >> x & 1)
        for x in range(layer.n)
    ]


def test_kk_bound_examples():
    assert kk_bound(11, 3, 1) == 12
    for n, k in ((5, 3), (6, 3), (8, 4)):
        assert kk_bound(binom(n, k), k, 1) == binom(n, k - 1)
    assert kk_bound(14, 4, 1) == 20
    assert kk_bound(7, 3, 0) == 7
    with pytest.raises(ValueError):
        kk_bound(5, 3, 3)


def test_is_extremal_examples():
    seg = initial_segment(6, 3, 12)
    assert len(shadow(seg)) == 13
    assert is_extremal(seg)
    forb = KFamily.from_sets(
        6,
        3,
        [
            s
            for s in combinations(range(1, 7), 3)
            if not ({1, 2} <= set(s) or {3, 4} <= set(s))
        ],
    )
    assert len(forb) == 12 and len(shadow(forb)) == 13
    assert is_extremal(forb)
    pair = KFamily.from_sets(6, 3, [(1, 2, 3), (4, 5, 6)])
    assert len(shadow(pair)) == 6 > kk_bound(2, 3, 1) == 5
    assert not is_extremal(pair)
    with pytest.raises(ValueError):
        is_extremal(KFamily(5, 3, ()))


def test_brute_force_min_shadow_examples():
    assert brute_force_min_shadow(5, 3, 4) == 6
    assert brute_force_min_shadow(6, 3, 12) == 13
    for n, k in ((5, 3), (6, 2), (4, 2)):
        assert brute_force_min_shadow(n, k, binom(n, k)) == binom(n, k - 1)


def test_min_shadow_of_one_sets():
    # at k = 1 every nonempty family's shadow is the one empty set, so the
    # oracle answers 1 for every size, from no table
    for n in range(1, 6):
        for m in range(1, n + 1):
            for chosen in combinations(range(1, n + 1), m):
                family = KFamily.from_sets(n, 1, ([x] for x in chosen))
                assert brute_force_min_shadow(n, 1, m) == len(shadow(family)) == 1


def test_min_shadow_sides_agree():
    # the closure side over C([n], k - 1) and the k-side over C([n], k) are
    # each other's oracle: both range over every subfamily and neither reads
    # the bound, so wherever both tables fit they must agree, and with it
    both = [
        (n, k)
        for n in range(2, 8)
        for k in range(2, n + 1)
        if max(binom(n, k), binom(n, k - 1)) <= extremal.SWEEP_LAYER_LIMIT
    ]
    assert {(5, 3), (6, 3), (6, 4), (7, 2), (7, 6)} <= set(both)
    for n, k in both:
        layer = _layer(n, k)
        closure = extremal._closure_min_shadows(layer)
        assert closure == extremal._member_min_shadows(layer), (n, k)
        assert closure == [0] + [kk_bound(m, k, 1) for m in range(1, layer.size + 1)], (n, k)


def test_small_sizes_on_large_tables_are_enumerated():
    # a table of more than 2^16 entries is not built for at most 2^16
    # combinations: the k-side at (7,5) and (21,20), the closure side at
    # (7,3) and (18,2); the answers are the Kruskal-Katona bound
    cases = [(7, 5, m) for m in (1, 2, 6, 21)]
    cases += [(7, 3, m) for m in (1, 3, 4, 34, 35)]
    cases += [(21, 20, 1), (21, 20, 2), (21, 20, 21), (18, 2, 1), (18, 2, 2)]
    before = extremal._min_shadows.cache_info()
    for n, k, m in cases:
        assert brute_force_min_shadow(n, k, m) == kk_bound(m, k, 1), (n, k, m)
    assert extremal._min_shadows.cache_info() == before


def closure_counts(n, k):
    """The number of extremal m-subsets of C([n], k) per size m, from the
    closure table's scan for the T with |T| = s(|K(T)|)."""
    least = extremal._min_shadows(n, k)
    assert least[1:] == [kk_bound(m, k, 1) for m in range(1, binom(n, k) + 1)], (n, k)
    return extremal._extremal_counts(n, k)


def test_extremal_counts_from_closure_scan():
    # with s(m) the least shadow of m sets: an extremal m-family F lies in
    # K(T) for T = shadow(F), and |T| = s(m).  Conversely, an m-subset F of
    # K(T) with |T| = s(m) has shadow(F) inside T, so |shadow(F)| <= s(m);
    # minimality makes the sizes equal, so F is extremal and shadow(F) = T.
    # So every extremal m-family is counted exactly once, under T = its
    # shadow, by the sum over |T| = s(m) of C(|K(T)|, m)
    for n, k in ((5, 3), (6, 2), (6, 3), (6, 4)):
        expected = {m: len(p) for m, p in every_size(n, k).items()}
        assert closure_counts(n, k) == expected, (n, k)
    # one layer past the k-side sweeps, against the paper's recursive
    # characterization run forwards
    counts = closure_counts(7, 3)
    assert counts == {m: len(_enum_recursive(7, 3, m)) for m in range(1, 36)}
    assert sum(counts.values()) == 232555 and max(counts.values()) == 85260


def test_extremal_counts_at_k_2_in_closed_form():
    """The (n,2) counts of the closure scan against a closed form.

    A 2-family is a graph on [n], and its shadow is its set of non-isolated
    vertices.  A graph on s vertices has at most C(s, 2) edges, so the least
    shadow of m edges is s(m), the least s with C(s, 2) >= m, and the
    extremal m-families are the m-edge graphs with exactly s(m)
    non-isolated vertices.  Choose those vertices, C(n, s) ways; the m edges
    inside them that leave none of the s isolated number, by
    inclusion-exclusion over the set J of isolated ones, the sum over j of
    (-1)^j C(s, j) C(C(s - j, 2), m).  No table enters the formula.
    """
    for n in range(3, 22):
        expected = {}
        for m in range(1, comb(n, 2) + 1):
            s = next(s for s in range(n + 1) if comb(s, 2) >= m)
            inside = sum((-1) ** j * comb(s, j) * comb(comb(s - j, 2), m) for j in range(s + 1))
            expected[m] = comb(n, s) * inside
        assert extremal._extremal_counts(n, 2) == expected, n
    assert expected[3] == comb(21, 3) and extremal._extremal_counts(8, 2)[22] == 376740


def reversed_bits(pattern, width):
    """The pattern with its width position bits in reverse order."""
    return int(format(pattern, f"0{width}b")[::-1], 2)


def test_closure_table_is_the_complement_layers_shadow_sizes():
    # set complement in [n] sends the (k-1)-sets, in colex order, to the
    # (n-k+1)-sets in reverse colex order, and a k-set S holds a (k-1)-set
    # A outside T iff [n] - S lies in the shadow of [n] - A.  So
    # |K(T)| = C(n, k) - |shadow of the complements of ~T|: the closure
    # table of (n, k) at T is C(n, k) less the shadow-size table of
    # (n, n-k+1) at the reversed pattern of ~T.  The two tables are built
    # from different layers' shed lists, and neither is read to build the
    # other
    rng = random.Random(26)
    for n, k in ((5, 2), (6, 2), (6, 3), (7, 3), (7, 2)):
        layer, dual = _layer(n, k), _layer(n, n - k + 1)
        width = len(layer.sub_masks)
        assert dual.size == width, (n, k)
        closures, counts = layer.closures(), dual.counts()
        full = (1 << width) - 1
        patterns = range(1 << width) if width <= 15 else rng.sample(range(1 << width), 4096)
        for t in patterns:
            assert closures[t] == layer.size - counts[reversed_bits(full ^ t, width)], (n, k, t)


def test_closure_patterns_match_k_side_flags():
    # the shadow side and the k-side flags are each other's oracle: in the
    # same ascending order, at every size of every layer where both tables
    # fit and the closure table is the smaller, listed all sizes at once,
    # one size at a time, and over a middle range of sizes
    both = [
        (n, k)
        for n in range(2, 8)
        for k in range(2, n + 1)
        if binom(n, k - 1) < binom(n, k) <= extremal.SWEEP_LAYER_LIMIT
    ]
    assert both == [(4, 2), (5, 2), (6, 2), (6, 3), (7, 2)]
    for n, k in both:
        layer = _layer(n, k)
        flags = extremal._member_patterns(layer)
        sizes = range(1, layer.size + 1)
        assert extremal._closure_patterns(layer, sizes) == flags, (n, k)
        assert every_size(n, k) == flags, (n, k)
        for m in sizes:
            assert extremal._closure_patterns(layer, range(m, m + 1)) == {m: flags[m]}, (n, k, m)
        middle = range(layer.size // 3, 2 * layer.size // 3 + 1)
        expected = {m: flags[m] for m in middle}
        assert extremal._closure_patterns(layer, middle) == expected, (n, k)


def test_closure_patterns_match_recursive_at_7_3():
    # one layer past the k-side sweeps: the shadow side, one size at a time
    # as enumerate_extremal lists it, against the paper's recursive
    # characterization run forwards.  Neither reads the other's argument,
    # so their agreement shows, with no appeal to Kruskal-Katona, that the
    # characterization generates exactly the extremal families of (7,3)
    layer = _layer(7, 3)
    position = {mask: 1 << i for i, mask in enumerate(layer.masks)}
    total = 0
    for m in range(1, 36):
        patterns = extremal._closure_patterns(layer, range(m, m + 1))[m]
        assert patterns == sorted(set(patterns)), m
        generated = {sum(map(position.__getitem__, masks)) for masks in _enum_recursive(7, 3, m)}
        assert set(patterns) == generated, m
        total += len(patterns)
    assert total == 232555


def test_shadow_chain_through_serving_shadows():
    # every extremal m-family F of (7,3) has shadow(F) = T for a T with
    # |T| = s(m) and |K(T)| >= m, so its second shadow is shadow(T): one
    # check per (T, m) covers the chain of every extremal family under T.
    # s comes from the closure table, so |T| = seq_value(a, 2) is the
    # Kruskal-Katona bound checked, and |shadow(T)| = seq_value(a, 1) the
    # chain property; the covered families are all 232,555
    layer = _layer(7, 3)
    least = extremal._min_shadows(7, 3)
    closures = layer.closures()
    found = pairs = covered = 0
    for start, _, differ in extremal._serving_blocks(layer, [0xFF] + least[1:]):
        for t in extremal._zeros(differ):
            pattern = start + t
            chosen = [mask for i, mask in enumerate(layer.sub_masks) if pattern >> i & 1]
            second = len(shadow(KFamily(7, 2, tuple(chosen))))
            c = closures[pattern]
            found += 1
            m = c
            while m and least[m] == least[c]:
                a = decompose(m, 3)
                assert len(chosen) == seq_value(a, 2), (pattern, m)
                assert second == seq_value(a, 1), (pattern, m)
                pairs += 1
                covered += binom(c, m)
                m -= 1
    assert (found, pairs, covered) == (3340, 4800, 232555)


def test_extremal_patterns_come_from_the_smaller_table(monkeypatch):
    # one admission picks the table: the closure side serves where k >= 2
    # and C(n, k - 1) < C(n, k) within the sweep limit, the k-side elsewhere
    # within it, and past it the k-side refuses.  Against a table from
    # math.comb alone, for every layer with n <= 22, with no layer built
    limit = extremal.SWEEP_LAYER_LIMIT
    closure_layers = set()
    with monkeypatch.context() as patch:
        patch.setattr(extremal, "_layer", lambda n, k: (n, k))
        for n in range(1, 23):
            for k in range(1, n + 1):
                below, size = comb(n, k - 1), comb(n, k)
                if k >= 2 and below <= limit and below < size:
                    expected = ((n, k), True)
                    closure_layers.add((n, k))
                elif size > limit:
                    message = f"layer of {size} sets exceeds the sweep limit of {limit} sets"
                    expected = (BudgetError, message)
                else:
                    expected = ((n, k), False)
                try:
                    got = extremal._served_layer(n, k)
                except BudgetError as exc:
                    got = (type(exc), str(exc))
                assert got == expected, (n, k)
    assert closure_layers == {(n, 2) for n in range(4, 22)} | {(6, 3), (7, 3)}

    # the minimum shadows, the listing and enumerate_extremal each read it
    served, admitted = [], []
    closure, flags, admission = (
        extremal._closure_patterns,
        extremal._member_patterns,
        extremal._served_layer,
    )

    def by_closure(layer, sizes):
        served.append(("closure", layer.n, layer.k))
        return closure(layer, sizes)

    def by_flags(layer):
        served.append(("flags", layer.n, layer.k))
        return flags(layer)

    def counted(n, k):
        admitted.append((n, k))
        return admission(n, k)

    monkeypatch.setattr(extremal, "_closure_patterns", by_closure)
    monkeypatch.setattr(extremal, "_member_patterns", by_flags)
    monkeypatch.setattr(extremal, "_served_layer", counted)
    extremal._layer.cache_clear()
    layers = ((4, 2), (6, 3), (7, 3), (8, 2), (3, 2), (5, 3), (6, 4), (7, 5), (5, 1))
    for n, k in layers:
        enumerate_extremal(n, k, 2)
    assert served == [
        ("closure", 4, 2),
        ("closure", 6, 3),
        ("closure", 7, 3),
        ("closure", 8, 2),
        ("flags", 3, 2),
        ("flags", 5, 3),
        ("flags", 6, 4),
        ("flags", 7, 5),
        ("flags", 5, 1),
    ]
    # enumerate_extremal, then the listing it calls
    assert admitted == [layer for layer in layers for _ in range(2)]
    admitted.clear()
    extremal._min_shadows.__wrapped__(6, 3)
    extremal._extremal_patterns(5, 3, range(1, 11))
    assert admitted == [(6, 3), (5, 3)]
    extremal._layer.cache_clear()


def test_layer_sweep_builds_each_table_once(monkeypatch):
    # the calls of one benchmark layer-sweep pass, on fresh caches: the
    # (6,3) closure table and its extremal counts are built once, each
    # size's extremal patterns are listed once, and no k-side listing is made
    for cache in (extremal._layer, extremal._min_shadows, extremal._extremal_counts):
        cache.cache_clear()
    built = Counter()
    listed = Counter()
    Layer = extremal._Layer
    closures, extremal_counts = Layer.closures, extremal._extremal_counts
    closure, listing = extremal._closure_patterns, extremal._member_patterns

    def counted_closures(layer):
        built["closures", layer.n, layer.k] += layer._closures is None
        return closures(layer)

    def counted_counts(n, k):
        misses = extremal_counts.cache_info().misses
        counts = extremal_counts(n, k)
        built["counts", n, k] += extremal_counts.cache_info().misses - misses
        return counts

    def counted_patterns(layer, sizes):
        listed.update((layer.n, layer.k, m) for m in sizes)
        return closure(layer, sizes)

    def counted_listing(layer):
        built["k-side listing", layer.n, layer.k] += 1
        return listing(layer)

    monkeypatch.setattr(Layer, "closures", counted_closures)
    monkeypatch.setattr(extremal, "_extremal_counts", counted_counts)
    monkeypatch.setattr(extremal, "_closure_patterns", counted_patterns)
    monkeypatch.setattr(extremal, "_member_patterns", counted_listing)
    rng = random.Random(22)
    for k in (2, 3):
        for n in range(k, 7):
            sizes = list(range(1, binom(n, k) + 1))
            rng.shuffle(sizes)
            for m in sizes:
                assert brute_force_min_shadow(n, k, m) == kk_bound(m, k, 1)
    assert characterization_sweep(6, 3)["extremal"] == 5532
    min_degree_sweep(6, 3)
    classes = [extremal_iso_classes(6, 3, m) for m in range(1, 21)]
    families = [enumerate_extremal(6, 3, m) for m in range(1, 21)]
    assert sum(map(len, classes)) == 42 and sum(map(len, families)) == 5532
    assert built[("closures", 6, 3)] == built[("counts", 6, 3)] == 1
    assert not any(key[0] == "k-side listing" for key in built)
    assert listed == Counter((6, 3, m) for m in range(1, 21))


def test_oracle_equivalence_small():
    for n in range(2, 6):
        for k in (2, 3):
            if k > n:
                continue
            for m in range(1, binom(n, k) + 1):
                assert brute_force_min_shadow(n, k, m) == kk_bound(m, k, 1), (n, k, m)


def test_shadow_chain_examples():
    single = KFamily.from_sets(5, 3, [(1, 2, 3)])
    assert shadow_chain_check(single)
    for n in range(3, 9):
        for k in range(2, min(4, n) + 1):
            for m in range(1, binom(n, k) + 1):
                assert shadow_chain_check(initial_segment(n, k, m))
    with pytest.raises(ValueError):
        shadow_chain_check(KFamily.from_sets(6, 3, [(1, 2, 3), (4, 5, 6)]))


def test_characterize_segment():
    seg = initial_segment(6, 3, 12)
    report = characterize(seg)
    assert report.verdict
    assert report.cascade == (5, 2, 1)
    at6 = report.element(6)
    assert at6.branch == "strict"
    assert at6.deleted_size == 10 and at6.threshold == 4
    assert decompose(at6.deleted_size, 3).terms == (5,)
    assert decompose(at6.link_size, 2).terms == (2, 1)
    assert at6.ok and at6.numeric and at6.inclusion
    assert certify_by_witness(seg, 6)
    assert certify_by_witness(seg, 1)


def test_characterize_forbidden_pairs():
    forb = KFamily.from_sets(
        6,
        3,
        [
            s
            for s in combinations(range(1, 7), 3)
            if not ({1, 2} <= set(s) or {3, 4} <= set(s))
        ],
    )
    report = characterize(forb)
    assert report.verdict
    assert all(e.ok for e in report.elements)


def test_characterize_rejects_support_gap():
    gappy = KFamily.from_sets(6, 3, [(1, 2, 3)])
    with pytest.raises(ValueError):
        characterize(gappy)


def test_certificate_entries_refuse_out_of_domain_families():
    # the characterization, the witness certificate and the minimum-degree
    # bound are stated for full-support families with k >= 2
    stars = KFamily.from_sets(3, 1, [(1,), (2,), (3,)])
    gappy = KFamily.from_sets(6, 3, [(1, 2, 3), (1, 2, 4)])
    gap = "support gap: some element of [n] has degree zero"
    degree_domain = "need |S| > 1 and n > k > 1"
    cases = [
        (characterize, (stars,), "characterization requires k >= 2"),
        (characterize, (KFamily(3, 2, ()),), "characterization requires a nonempty family"),
        (certify_by_witness, (stars, 1), "characterization requires k >= 2"),
        (certify_by_witness, (gappy, 1), gap),
        (min_degree_bound_check, (KFamily.from_sets(4, 2, [(1, 2)]),), degree_domain),
        (min_degree_bound_check, (stars,), degree_domain),
        (min_degree_bound_check, (gappy,), gap),
    ]
    for func, args, message in cases:
        with pytest.raises(ValueError) as info:
            func(*args)
        assert info.type is ValueError and str(info.value) == message, (func, args)


def test_characterize_matches_is_extremal_sampled():
    rng = random.Random(4242)
    pool6 = list(combinations(range(1, 7), 3))
    for _ in range(400):
        m = rng.randint(1, 14)
        family = KFamily.from_sets(6, 3, rng.sample(pool6, m))
        support = family.support()
        if len(support) < 3:
            continue
        relabel = {x: i + 1 for i, x in enumerate(support)}
        compacted = KFamily.from_sets(
            len(support), 3, ([relabel[e] for e in s] for s in family.sets())
        )
        assert characterize(compacted).verdict == is_extremal(compacted)


def test_characterization_sweep_small_layer():
    result = characterization_sweep(5)
    assert result["checked"] == 2**10 - 1
    assert result["mismatches"] == []


def test_characterize_matches_extremality_at_k2():
    # exhaustive at the (5,2) layer, support-compacted via direct evaluation
    from shadowlab.families import compact_support

    pool = list(combinations(range(1, 6), 2))
    for pattern in range(1, 1 << len(pool)):
        chosen = [pool[i] for i in range(len(pool)) if pattern >> i & 1]
        family = compact_support(KFamily.from_sets(5, 2, chosen))
        if family.n < 2:
            continue
        assert characterize(family).verdict == is_extremal(family), chosen


# (checked, extremal) for every layer the any-k characterization sweep covers
SWEEP_COUNTS = {
    (3, 2): (7, 7),
    (4, 2): (63, 44),
    (4, 3): (15, 15),
    (5, 2): (1023, 336),
    (5, 3): (1023, 231),
    (5, 4): (31, 31),
    (6, 2): (32767, 3422),
    (6, 3): (1048575, 5532),
    (6, 4): (32767, 1032),
    (6, 5): (63, 63),
    (7, 2): (2097151, 46110),
    (7, 5): (2097151, 4124),
}


def test_characterization_sweep_every_layer():
    assert sorted(SWEEP_COUNTS) == [
        (n, k) for n in range(3, 7) for k in range(2, n)
    ] + [(7, 2), (7, 5)]
    for (n, k), (checked, extremal) in SWEEP_COUNTS.items():
        result = characterization_sweep(n, k)
        assert (result["checked"], result["extremal"]) == (checked, extremal), (n, k)
        assert result["mismatches"] == [], (n, k)
    # the verdict reads no layer but its own, so (8,7) fits although its
    # (8,6) link layer does not; every subfamily of (7,6) and (8,7) is
    # extremal
    for n in (7, 8):
        full = 2**n - 1
        assert characterization_sweep(n, n - 1) == {
            "n": n, "k": n - 1, "checked": full, "extremal": full, "mismatches": []
        }
    with pytest.raises(BudgetError, match="layer of 35 sets exceeds the sweep limit of 21"):
        characterization_sweep(7, 3)
    for n, k in ((3, 3), (4, 1), (2, 1)):
        with pytest.raises(ValueError):
            characterization_sweep(n, k)


def test_extremal_counts_match_shadow_oracle():
    # independent of the layer tables and of the bound: a family is
    # extremal iff its shadow is the smallest among families of its size
    for (n, k), (checked, extremal) in SWEEP_COUNTS.items():
        if binom(n, k) >= 20:
            continue  # 2^20 families or more; the sweeps are pinned above
        pool = sorted(
            sum(1 << (e - 1) for e in s) for s in combinations(range(1, n + 1), k)
        )
        count = 0
        for m in range(1, len(pool) + 1):
            sizes = [
                len(shadow(KFamily(n, k, chosen)))
                for chosen in combinations(pool, m)
            ]
            count += sizes.count(min(sizes))
        assert (2 ** len(pool) - 1, count) == (checked, extremal), (n, k)


def test_layer_tables_match_list_dp():
    # the member counts of the block view (low popcount plus the block's
    # popcount) and the byte-plane shadow sizes against a plain list DP over
    # the same patterns, multi-block layers such as (6,3) included: bit i of
    # a pattern picks the i-th k-set in colex order, and bit j of a shadow
    # mask the j-th (k-1)-set
    for n in range(1, 7):
        for k in range(1, n + 1):
            pool = sorted(
                sum(1 << (e - 1) for e in s) for s in combinations(range(1, n + 1), k)
            )
            subs = sorted(
                sum(1 << (e - 1) for e in s)
                for s in combinations(range(1, n + 1), k - 1)
            )
            shed = [
                sum(1 << subs.index(mask & ~(1 << e)) for e in range(n) if mask >> e & 1)
                for mask in pool
            ]
            total = 1 << len(pool)
            shadow_masks = [0] * total
            members = [0] * total
            for pattern in range(1, total):
                low = pattern & -pattern
                rest = pattern ^ low
                shadow_masks[pattern] = shadow_masks[rest] | shed[low.bit_length() - 1]
                members[pattern] = members[rest] + 1
            layer = _layer(n, k)
            count = bytearray()
            for start, offset, values, low_members in _table_blocks(layer.counts(), layer.size):
                assert start == len(count) and len(values) == len(low_members), (n, k)
                count += bytes(c + offset for c in low_members)
            assert list(count) == members, (n, k)
            assert list(layer.counts()) == [mask.bit_count() for mask in shadow_masks], (n, k)
            # |K(T)|, the k-sets whose every (k-1)-subset lies in T, counted
            # set by set over the patterns T of the (k-1)-sets
            if len(subs) <= 15:
                closures = [
                    sum(bits & t == bits for bits in shed) for t in range(1 << len(subs))
                ]
                assert list(layer.closures()) == closures, (n, k)


def test_sweep_limit_refuses_before_building_the_layer():
    misses = _layer.cache_info().misses
    with pytest.raises(BudgetError, match="layer of 184756 sets exceeds the sweep limit"):
        enumerate_extremal(20, 10, 5)
    with pytest.raises(BudgetError, match="layer of 35 sets exceeds the sweep limit"):
        min_degree_sweep(7, 3)
    # the closure table over C([8], 2) is past the limit too, so the
    # admission sends (8,3) to the k-side, which refuses
    with pytest.raises(BudgetError) as info:
        extremal._min_shadows(8, 3)
    assert str(info.value) == "layer of 56 sets exceeds the sweep limit of 21 sets"
    # a ground set past 64 is refused first, on every table path
    refused = [
        (extremal._served_layer, (65, 2)),
        (extremal._served_layer, (65, 65)),
        (extremal._sweep_layer, (65, 65)),
        (extremal._sweep_layer, (300, 300)),
        (extremal._min_shadows, (65, 65)),
        (brute_force_min_shadow, (65, 65, 1)),
        (brute_force_min_shadow, (65, 2, 1)),
        (brute_force_min_shadow, (65, 2, 3)),
        (extremal_class_counts, (65, 65)),
        (extremal_class_counts, (65, 2)),
        (extremal_class_counts, (300, 300)),
        (min_degree_sweep, (65, 2)),
        (characterization_sweep, (65, 2)),
    ]
    for engine, args in refused:
        with pytest.raises(ValueError) as info:
            engine(*args)
        assert str(info.value) == "need 0 <= k <= n <= 64", (engine.__name__, args)
    assert _layer.cache_info().misses == misses


def clause_table(layer, x):
    """One byte per pattern of the layer, zero exactly where every condition
    of the characterization holds at element x."""
    table = bytearray()
    for start, bad in _clause_blocks(layer, x):
        assert start == len(table), (layer.n, layer.k, x, start)
        table += bad
    assert len(table) == 1 << layer.size, (layer.n, layer.k, x)
    return table


def clause_tables(n, k):
    """Per element x, at index x - 1: its ``clause_table``."""
    layer = _layer(n, k)
    return [clause_table(layer, x) for x in range(1, n + 1)]


def cycled(masks, n, j):
    """The masks relabeled by c^j, c the n-cycle i -> i+1 of [n], in the
    order given: element e goes to (e - 1 + j) mod n + 1."""
    return [
        sum(1 << (e + j) % n for e in range(n) if mask >> e & 1) for mask in masks
    ]


# (nonempty pattern, support element) pairs at which every condition holds
CLAUSE_COUNTS = {
    (3, 2): 18,
    (4, 2): 148,
    (4, 3): 56,
    (5, 2): 1460,
    (5, 3): 1080,
    (5, 4): 150,
    (6, 2): 18516,
    (6, 3): 31806,
    (6, 4): 6006,
    (6, 5): 372,
    (7, 2): 298816,
    (7, 5): 28427,
    (7, 6): 882,
}


def test_fast_verdict_matches_slow_characterize():
    # each element's block bytes against the family-at-a-time oracle, on the
    # support-compacted family; an element outside the support passes
    rng = random.Random(777)
    assert sorted(CLAUSE_COUNTS) == sorted(SWEEP_COUNTS) + [(7, 6)]
    for n, k in CLAUSE_COUNTS:
        layer = _layer(n, k)
        tables = clause_tables(n, k)
        total = 1 << layer.size
        if total <= 1 << 10:
            samples = range(1, total)
        else:
            samples = [rng.randrange(1, total) for _ in range(600)]
        for pattern in samples:
            family = layer.family(pattern)
            support = family.support()
            relabel = {x: i + 1 for i, x in enumerate(support)}
            compacted = KFamily.from_sets(
                len(support), k, ([relabel[e] for e in s] for s in family.sets())
            )
            report = characterize(compacted)
            for x in range(1, n + 1):
                ok = report.element(relabel[x]).ok if x in relabel else True
                assert (tables[x - 1][pattern] == 0) == ok, (n, k, pattern, x)


def test_characterize_element_fields_pinned():
    # every ElementCheck field at every element of every full-support
    # subfamily of three layers: the deleted part's one shadow decides both
    # inclusions and its extremality, which ``ok`` alone would not pin.  The
    # branch and clause counts and a digest of every field are pinned
    digest = hashlib.sha256()
    counts = Counter()
    for n, k in ((4, 2), (5, 2), (5, 3)):
        layer = list(combinations(range(1, n + 1), k))
        for pattern in range(1, 1 << len(layer)):
            family = KFamily.from_sets(n, k, (s for i, s in enumerate(layer) if pattern >> i & 1))
            if family.support() != tuple(range(1, n + 1)):
                continue
            for check in characterize(family).elements:
                digest.update(f"{n} {k} {pattern} {astuple(check)}\n".encode())
                counts[check.branch, check.inclusion, check.deleted_extremal] += 1
    assert counts == {
        ("neither", None, None): 244,
        ("equality", False, None): 1564,
        ("equality", True, None): 538,
        ("strict", False, True): 1412,
        ("strict", True, False): 950,
        ("strict", True, True): 4086,
    }
    assert digest.hexdigest() == "79be266bf67e19e0e103ecd4db544b810d6a5319e3f09a07190c11285dbc080c"


def test_clause_counts_per_support_element():
    # exhaustive on every layer: every pattern that avoids x passes at x, and
    # the pairs that pass at a support element are pinned
    for (n, k), count in CLAUSE_COUNTS.items():
        layer = _layer(n, k)
        full = (1 << layer.size) - 1
        held = 0
        for x, (star, table) in enumerate(zip(stars(layer), clause_tables(n, k)), 1):
            avoid = full ^ star
            sub = avoid
            while True:  # every subset of avoid, the empty pattern last
                assert table[sub] == 0, (n, k, x, sub)
                if not sub:
                    break
                sub = (sub - 1) & avoid
            held += table.count(0) - (1 << avoid.bit_count())
        assert held == count, (n, k)


# patterns, the empty one included, at which every condition holds at
# element n; the sweep walks only these through the n-cycle
PASSING_AT_N = {(6, 3): 6325, (7, 5): 4125, (7, 2): 75456}


def test_clause_tables_are_relabelings_of_element_n():
    # the identity the sweep relies on: with c the n-cycle i -> i+1, the
    # table of element x at P is element n's table at c^(n-x) P.  Images
    # come from relabeling the masks, not from the layer's relabeling tables
    rng = random.Random(21)
    for n, k in CLAUSE_COUNTS:
        layer = _layer(n, k)
        position = {mask: i for i, mask in enumerate(layer.masks)}
        tables = clause_tables(n, k)
        at_n = tables[-1]
        passing = at_n.count(0)
        # by symmetry every element passes at count / n nonempty patterns
        # of its support; the patterns that avoid n pass at n
        assert passing == CLAUSE_COUNTS[n, k] // n + 2 ** binom(n - 1, k), (n, k)
        assert passing == PASSING_AT_N.get((n, k), passing), (n, k)
        for x in range(1, n + 1):
            moved = [position[m] for m in cycled(layer.masks, n, n - x)]
            if layer.size <= 15:
                images = [0]
                for i in moved:
                    images += [image | 1 << i for image in images]
                assert tables[x - 1] == bytes(at_n[q] for q in images), (n, k, x)
            if (n, k) in ((6, 3), (6, 4), (7, 5)):
                for pattern in (rng.getrandbits(layer.size) for _ in range(2000)):
                    image = sum(1 << i for b, i in enumerate(moved) if pattern >> b & 1)
                    assert tables[x - 1][pattern] == at_n[image], (n, k, x, pattern)
    assert set(PASSING_AT_N) < set(CLAUSE_COUNTS)


def test_characterization_sweep_reports_mismatches_in_order(monkeypatch):
    # verdicts made false at element 6 at two extremal patterns, one flag set
    # on a non-extremal pattern and one cleared: four mismatches in four
    # blocks.  A pattern whose chain c P, ..., c^5 P reaches a planted
    # failure fails too, so every pattern of those two c-orbits (all
    # extremal, as relabeling keeps extremality) is a mismatch; the report
    # lists them all, in ascending order
    from shadowlab import extremal
    layer = _layer(6, 3)
    by_size = every_size(6, 3)
    flagged = sorted(p for patterns in by_size.values() for p in patterns)
    failing = {flagged[0], next(p for p in flagged if p >= 9 << 16)}
    raised = next(p for p in range(3 << 16, 4 << 16) if p not in set(flagged))
    cleared = flagged[-2]
    planted = sorted(failing | {raised, cleared})
    assert len({p >> 16 for p in planted}) == 4
    orbits = {
        layer.pattern(tuple(cycled(layer.family(p).masks, 6, j)))
        for p in failing
        for j in range(6)
    }
    assert failing < orbits <= set(flagged) and not {raised, cleared} & orbits
    expected = sorted(orbits | {raised, cleared})

    blocks = extremal._clause_blocks

    def blocks_with_failures(layer, x):
        for start, bad in blocks(layer, x):
            bad = bytearray(bad)
            for p in failing:
                if x == layer.n and start <= p < start + len(bad):
                    bad[p - start] = 1
            yield start, bytes(bad)

    def patterns_changed(n, k, sizes):
        changed = {m: list(patterns) for m, patterns in by_size.items()}
        changed[len(layer.family(raised))].append(raised)
        changed[len(layer.family(cleared))].remove(cleared)
        return changed

    monkeypatch.setattr(extremal, "_clause_blocks", blocks_with_failures)
    monkeypatch.setattr(extremal, "_extremal_patterns", patterns_changed)
    result = characterization_sweep(6, 3)
    assert result["extremal"] == 5532
    assert result["mismatches"] == expected
    assert set(planted) <= set(expected) and len(expected) > len(planted)


def test_extremal_families_realize_equality_splits():
    # an extremal family whose cascade a is shorter than k splits at each
    # strict-branch element into the deleted part and the link; their
    # cascades (b, c) must be one of the closed-form equality splits of a
    realized = {}
    for n, k in ((5, 2), (6, 2), (5, 3), (6, 3), (6, 4)):
        members = stars(_layer(n, k))
        checked = 0
        for m, patterns in every_size(n, k).items():
            a = decompose(m, k)
            if len(a) >= k:
                continue
            threshold = seq_value(seq_minus(a, 1), k)
            profiles = {split_profile(b, c, k) for b, c in equality_splits(a, k)}
            for pattern in patterns:
                degrees = [(pattern & member).bit_count() for member in members]
                if 0 in degrees:
                    continue  # not full support
                for d in degrees:
                    if m - d > threshold:
                        b, c = decompose(m - d, k), decompose(d, k - 1)
                        assert split_profile(b, c, k) in profiles, (n, k, pattern, d)
                        checked += 1
        realized[n, k] = checked
    # at k = 2 the only such family with full support is the whole layer,
    # and it splits on the equality branch
    assert realized == {(5, 2): 0, (6, 2): 0, (5, 3): 110, (6, 3): 450, (6, 4): 1350}


def test_extremal_families_meet_both_inclusion_clauses():
    # the characterization's inclusions on real extremal families, by direct
    # set operations: at each element x the deleted part S - x has at least
    # threshold many sets; on the equality branch its shadow lies inside the
    # link, on the strict branch the link inside its shadow
    from shadowlab.families import delete_star, link

    branches = {}
    for n, k in ((5, 2), (6, 2), (5, 3), (6, 3), (6, 4)):
        layer = _layer(n, k)
        equality = strict = 0
        for m, patterns in every_size(n, k).items():
            threshold = seq_value(seq_minus(decompose(m, k), 1), k)
            for pattern in patterns:
                family = layer.family(pattern)
                if len(family.support()) < n:
                    continue  # not full support
                for x in range(1, n + 1):
                    rest = delete_star(family, x)
                    links = set(link(family, x).masks)
                    rest_shadow = set(shadow(rest).masks)
                    assert len(rest) >= threshold, (n, k, pattern, x)
                    if len(rest) == threshold:
                        assert rest_shadow <= links, (n, k, pattern, x)
                        equality += 1
                    else:
                        assert links <= rest_shadow, (n, k, pattern, x)
                        strict += 1
        branches[n, k] = (equality, strict)
    assert branches == {
        (5, 2): (210, 670),
        (6, 2): (2316, 9330),
        (5, 3): (205, 625),
        (6, 3): (4086, 22020),
        (6, 4): (1236, 3930),
    }


def test_min_degree_bound_examples():
    seg = initial_segment(6, 3, 12)
    assert min_degree_bound_check(seg)
    assert decompose(10, 3).terms == (5,)
    assert lex_cmp(decompose(10, 3), seq_minus(decompose(12, 3), 1)) > 0
    full5 = full_layer(5, 3)
    assert min_degree_bound_check(full5)
    assert decompose(10 - 6, 3).terms == (4,)
    assert lex_cmp(decompose(4, 3), seq_minus(decompose(10, 3), 1)) == 0


# full-support subfamilies with more than one member, per sweepable layer;
# smaller supports are relabelings of the smaller sweeps
MIN_DEGREE_COUNTS = {
    (3, 2): 4,
    (4, 2): 41,
    (4, 3): 11,
    (5, 2): 768,
    (5, 3): 958,
    (5, 4): 26,
    (6, 2): 27449,
    (6, 3): 1042642,
    (6, 4): 32596,
    (6, 5): 57,
    (7, 2): 1887284,
    (7, 5): 2096731,
    (7, 6): 120,
}


def test_min_degree_sweep():
    assert sorted(MIN_DEGREE_COUNTS) == sorted(CLAUSE_COUNTS)
    for (n, k), count in MIN_DEGREE_COUNTS.items():
        assert min_degree_sweep(n, k) == count, (n, k)
    for n, k in ((3, 1), (4, 4), (3, 3), (2, 1)):
        with pytest.raises(ValueError):
            min_degree_sweep(n, k)
    # the sweep decides the bound once per (size, minimum degree); the
    # family-at-a-time check must pass on the same families
    full = tuple(range(1, 6))
    for k, count in ((2, 768), (3, 958)):
        pool = list(combinations(full, k))
        checked = 0
        for m in range(2, len(pool) + 1):
            for chosen in combinations(pool, m):
                family = KFamily.from_sets(5, k, chosen)
                if family.support() == full:
                    assert min_degree_bound_check(family), chosen
                    checked += 1
        assert checked == count


def _full_support_patterns(n, k):
    """(pattern, size, minimum degree) of every subfamily of C([n], k) with
    more than one member and full support, in pattern order."""
    layer = _layer(n, k)
    members = stars(layer)
    for pattern in range(1, 1 << layer.size):
        m = pattern.bit_count()
        dmin = min((pattern & star).bit_count() for star in members)
        if m > 1 and dmin > 0:
            yield pattern, m, dmin


def test_min_degree_sweep_reports_first_failing_pattern(monkeypatch):
    # no real layer violates the bound, so patched verdicts stand in for a
    # violation: the sweep must raise at the first failing pattern that a
    # family-at-a-time loop finds
    from shadowlab import extremal

    monkeypatch.setattr(extremal, "lex_cmp", lambda b, floor: -1)
    for n, k in ((5, 2), (6, 3)):
        first, _, _ = next(_full_support_patterns(n, k))
        with pytest.raises(RuntimeError, match=f"failed at pattern {first}$"):
            min_degree_sweep(n, k)
    # a verdict that fails at one (size, minimum degree) pair alone, for
    # every pair at (6,4), whose degrees reach the second byte of d
    first_of = {}
    for pattern, m, dmin in _full_support_patterns(6, 4):
        first_of.setdefault((m, dmin), pattern)
    assert max(d for _, d in first_of) >= 8
    for (m, d), first in first_of.items():
        failing = (decompose(m - d, 4), seq_minus(decompose(m, 4), 1))
        monkeypatch.setattr(
            extremal,
            "lex_cmp",
            lambda b, floor, failing=failing: -1 if (b, floor) == failing else 1,
        )
        with pytest.raises(RuntimeError, match=f"failed at pattern {first}$"):
            min_degree_sweep(6, 4)
    # (6,3) is swept in blocks of 2^16 patterns: the first family of 19 sets
    # misses the last set and has minimum degree 9, the whole layer has
    # degree 10; both lie past the first block
    for m, d, first in ((19, 9, (1 << 19) - 1), (20, 10, (1 << 20) - 1)):
        failing = (decompose(m - d, 3), seq_minus(decompose(m, 3), 1))
        monkeypatch.setattr(
            extremal,
            "lex_cmp",
            lambda b, floor, failing=failing: -1 if (b, floor) == failing else 1,
        )
        with pytest.raises(RuntimeError, match=f"failed at pattern {first}$"):
            min_degree_sweep(6, 3)


def test_enumerate_extremal_examples():
    classes_19 = extremal_iso_classes(6, 3, 19)
    assert len(classes_19) == 1
    families_19 = enumerate_extremal(6, 3, 19)
    assert len(families_19) == 20  # every way to delete one triple
    assert all(are_isomorphic(f, families_19[0]) for f in families_19)

    classes_10 = extremal_iso_classes(6, 3, 10)
    assert len(classes_10) == 1
    assert uniqueness_predicate(6, 3, 10)

    classes_12 = extremal_iso_classes(6, 3, 12)
    assert len(classes_12) >= 2
    assert not uniqueness_predicate(6, 3, 12)


def test_enumerate_methods_agree():
    for m in range(1, binom(5, 3) + 1):
        ex = {f.masks for f in enumerate_extremal(5, 3, m, method="exhaustive")}
        rec = {f.masks for f in enumerate_extremal(5, 3, m, method="recursive")}
        assert ex == rec, m
    for m in (3, 10, 12, 19):
        ex = {f.masks for f in enumerate_extremal(6, 3, m, method="exhaustive")}
        rec = {f.masks for f in enumerate_extremal(6, 3, m, method="recursive")}
        assert ex == rec, m
    # every size of the other layers the characterization sweep covers
    for n, k in ((3, 2), (4, 2), (4, 3), (5, 2), (5, 4), (6, 2), (6, 4), (6, 5), (7, 2), (7, 5)):
        for m in range(1, binom(n, k) + 1):
            ex = {f.masks for f in enumerate_extremal(n, k, m, method="exhaustive")}
            rec = {f.masks for f in enumerate_extremal(n, k, m, method="recursive")}
            assert ex == rec, (n, k, m)
    # at k = 1 every family is extremal
    for n, m in [(4, m) for m in range(1, 5)] + [(6, 3)]:
        ex = {f.masks for f in enumerate_extremal(n, 1, m, method="exhaustive")}
        rec = {f.masks for f in enumerate_extremal(n, 1, m, method="recursive")}
        assert ex == rec and len(ex) == binom(n, m), (n, m)
        assert extremal_iso_classes(n, 1, m) == [initial_segment(m, 1, m)]


def test_recursive_enumeration_refuses_non_extremal_output(monkeypatch, capsys):
    # a generated family that fails the shadow bound is an enumerator fault:
    # it is reported, never silently dropped
    from shadowlab.cli import main

    disjoint = (0b0011, 0b1100)  # {1,2}, {3,4}: shadow 4, bound 3
    monkeypatch.setattr(extremal, "_enum_recursive", lambda n, k, m: frozenset({disjoint}))
    with pytest.raises(RuntimeError, match=r"non-extremal \[\(1, 2\), \(3, 4\)\]"):
        enumerate_extremal(4, 2, 2, method="recursive")
    assert main(["enumerate", "4", "2", "2", "--method", "recursive"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal: RuntimeError: ")
    assert captured.err.count("\n") == 1


def test_enumerate_extremal_refuses_at_entry(monkeypatch):
    # a request off the ground rule 0 <= k <= n <= 64, a recursive request
    # past n = 10 and an unknown method are refused before any table is
    # built or any family generated
    def no_work(*args):
        raise AssertionError("built a table or generated a family")

    for name in ("_layer", "_extremal_counts", "_extremal_patterns", "_enum_recursive"):
        monkeypatch.setattr(extremal, name, no_work)
    bounded = "recursive enumeration bounded"
    cases = [
        ((65, 2, 1), {}, ValueError, "need 0 <= k <= n <= 64"),
        ((65, 1, 1), {}, ValueError, "need 0 <= k <= n <= 64"),
        ((65, 65, 1), {}, ValueError, "need 0 <= k <= n <= 64"),
        ((300, 300, 1), {"up_to_iso": True}, ValueError, "need 0 <= k <= n <= 64"),
        ((65, 2, 0), {"method": "recursive"}, ValueError, "need 0 <= k <= n <= 64"),
        ((64, 65, 1), {}, ValueError, "need 0 <= k <= n <= 64"),
        ((11, 2, 3), {"method": "recursive"}, BudgetError, f"{bounded} at n <= 10"),
        ((4, 2, 3), {"method": "greedy"}, ValueError, "unknown method 'greedy'"),
    ]
    for args, options, error, message in cases:
        with pytest.raises(error) as info:
            enumerate_extremal(*args, **options)
        assert info.type is error and str(info.value) == message, (args, options)


def test_extremal_iso_classes_reject_out_of_range_sizes():
    for n, k, m in ((5, 3, 0), (5, 3, 11), (5, 3, 25), (4, 2, -1)):
        with pytest.raises(ValueError, match="family size out of range"):
            extremal_iso_classes(n, k, m)


def test_extremal_counts_match_orbit_arithmetic():
    # hand-derivable orbit sizes at (6,3): single triples; edge-sharing pairs
    # (15 edges x 6 triple pairs over each); copies of the full (5,3) layer
    # (choose the unused element); the 16-set segment whose stabilizer is
    # S4 x C2 (orbit 720/48); full layer minus one triple; the full layer
    counts = {m: len(v) for m, v in every_size(6, 3).items()}
    assert counts[1] == 20
    assert counts[2] == 90
    assert counts[10] == 6
    assert counts[16] == 15
    assert counts[19] == 20
    assert counts[20] == 1


def _automorphism_count(masks, n):
    """Permutations of [n] that map the family onto itself, by brute force."""
    target = set(masks)
    count = 0
    for perm in permutations(range(n)):
        if all(
            sum(1 << perm[i] for i in range(n) if mask >> i & 1) in target
            for mask in masks
        ):
            count += 1
    return count


def test_recursive_counts_match_colex_orbits_at_7_3():
    # no exhaustive oracle reaches (7,3): where the colex segment is the
    # unique extremal class, the extremal families are exactly its orbit
    # under the 5040 permutations of [7]
    sizes = [m for m in range(1, 36) if uniqueness_predicate(7, 3, m)]
    assert len(sizes) == 19
    for m in sizes:
        orbit = 5040 // _automorphism_count(initial_segment(7, 3, m).masks, 7)
        assert len(_enum_recursive(7, 3, m)) == orbit, m


def test_iso_classes_orbit_sum():
    # independent of canonical_form: the orbits of pairwise non-isomorphic
    # extremal representatives under the 720 permutations of [6] must
    # exactly tile the extremal subfamilies of each size
    counts = {m: len(v) for m, v in every_size(6, 3).items()}
    per_size = []
    for m in range(1, 21):
        classes = extremal_iso_classes(6, 3, m)
        per_size.append(len(classes))
        orbit_sum = 0
        for rep in classes:
            embedded = KFamily(6, 3, rep.masks)
            assert len(embedded) == m and is_extremal(embedded)
            orbit_sum += 720 // _automorphism_count(rep.masks, 6)
        assert orbit_sum == counts[m], m
    assert per_size == [1, 1, 1, 1, 1, 2, 1, 2, 1, 1, 1, 5, 1, 8, 2, 1, 7, 3, 1, 1]


def _dedup_classes(families):
    """Per-family canonical forms, first of each kept: the oracle."""
    return list(dict.fromkeys(canonical_form(f) for f in families))


def test_iso_classes_match_dedup_oracle():
    # the class counts come from orbit roots of the cached listing, which
    # they must leave whole for the enumerations after them
    for n, k in ((6, 3), (5, 3), (5, 2), (6, 2), (4, 3), (4, 2), (6, 4), (6, 5)):
        counts = extremal_class_counts(n, k)
        assert list(counts) == list(range(1, binom(n, k) + 1)), (n, k)
        for m in range(1, binom(n, k) + 1):
            expected = _dedup_classes(enumerate_extremal(n, k, m))
            assert extremal_iso_classes(n, k, m) == expected, (n, k, m)
            assert counts[m] == len(expected), (n, k, m)
    for n, k, m in ((6, 3, 12), (7, 3, 9), (6, 2, 7)):
        families = enumerate_extremal(n, k, m, method="recursive")
        classes = enumerate_extremal(n, k, m, up_to_iso=True, method="recursive")
        assert classes == _dedup_classes(families), (n, k, m)


def test_verify_uniqueness_lists_once_and_takes_no_canonical_form(monkeypatch, capsys):
    # (7,3) is past the sweep limit: every size comes from one closure scan,
    # and the classes are counted as orbit roots, with no canonical search
    from shadowlab.cli import main

    listings, searches = [], []
    closure_patterns = extremal._closure_patterns

    def counted_listing(layer, sizes):
        listings.append((layer.n, layer.k, sizes))
        return closure_patterns(layer, sizes)

    monkeypatch.setattr(extremal, "_closure_patterns", counted_listing)
    monkeypatch.setattr(extremal, "canonical_form", lambda family: searches.append(family))
    assert main(["verify", "uniqueness", "7", "3"]) == 0
    assert listings == [(7, 3, range(1, 36))]
    assert searches == []
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert sum(row["classes"] for row in rows) == 191


def test_iso_classes_reject_lists_not_closed_under_relabeling():
    layer = _layer(3, 2)

    def patterns(*families):
        return [layer.pattern(KFamily.from_sets(3, 2, sets).masks) for sets in families]

    with pytest.raises(RuntimeError, match="not closed"):
        _orbit_classes(layer, patterns([(1, 2)]))
    # one transposition image present, the other missing
    with pytest.raises(RuntimeError, match="not closed"):
        _orbit_classes(layer, patterns([(1, 2)], [(1, 3)]))
    triangle = KFamily.from_sets(3, 2, [(1, 2), (1, 3), (2, 3)])
    assert _orbit_classes(layer, patterns(triangle.sets())) == [triangle]
    assert _orbit_classes(layer, []) == []
    # closed under one generator but not the other: {12} is fixed by (1 2)
    # but the 4-cycle moves it; the four edges of the 4-cycle are closed
    # under it but (1 2) sends {2,3} to {1,3}
    layer = _layer(4, 2)

    def at4(*families):
        return [layer.pattern(KFamily.from_sets(4, 2, sets).masks) for sets in families]

    with pytest.raises(RuntimeError, match="not closed"):
        _orbit_classes(layer, at4([(1, 2)]))
    with pytest.raises(RuntimeError, match="not closed"):
        _orbit_classes(layer, at4([(1, 2)], [(2, 3)], [(3, 4)], [(1, 4)]))
    edges = at4(*([s] for s in combinations(range(1, 5), 2)))
    assert _orbit_classes(layer, edges) == [canonical_form(KFamily.from_sets(4, 2, [(1, 2)]))]


def test_relabeling_tables_match_transposed():
    # the two generator tables, entry by entry: the transposition (1 2)
    # against _transposed, and the n-cycle against an explicit rotation of
    # the masks, positions read from the layer's colex order; layers of 10,
    # 20 and 35 sets end in a run of fewer than 8 positions
    rng = random.Random(18)
    for n, k in ((5, 2), (6, 3), (7, 3)):
        layer = _layer(n, k)
        position = {mask: i for i, mask in enumerate(layer.masks)}
        tables = layer.relabelings()
        relabel = [lambda masks: _transposed(masks, 1, 2), lambda masks: cycled(masks, n, 1)]
        assert len(tables) == 2, (n, k)
        for g, (runs, moved) in enumerate(zip(tables, relabel)):
            assert [len(run) for run in runs] == [
                1 << min(8, layer.size - start) for start in range(0, layer.size, 8)
            ], (n, k)

            def image(pattern):
                masks = tuple(m for i, m in enumerate(layer.masks) if pattern >> i & 1)
                return sum(1 << position[m] for m in moved(masks))

            for r, run in enumerate(runs):
                assert run == [image(b << 8 * r) for b in range(len(run))], (n, k, g, r)
            for pattern in [rng.getrandbits(layer.size) for _ in range(50)]:
                runs_of = pattern.to_bytes(len(runs), "little")
                assert sum(run[b] for run, b in zip(runs, runs_of)) == image(pattern)
    assert _layer(1, 1).relabelings() == []


def test_iso_classes_of_both_methods_agree():
    # the recursive path maps its mask tuples to layer patterns before the
    # orbit walk; both must give the same classes.  Each keeps its own
    # first-seen order (ascending patterns, ascending mask tuples), which
    # differ, so the classes are compared in canonical-mask order
    def classes(n, k, m, method):
        found = enumerate_extremal(n, k, m, up_to_iso=True, method=method)
        return sorted(found, key=lambda family: family.masks)

    for n, k in ((6, 3), (6, 2), (6, 4)):
        for m in range(1, binom(n, k) + 1):
            exhaustive = classes(n, k, m, "exhaustive")
            assert exhaustive == classes(n, k, m, "recursive"), (n, k, m)


def test_uniqueness_predicate_examples():
    assert uniqueness_predicate(6, 3, 10)
    assert uniqueness_predicate(6, 3, 19)
    assert not uniqueness_predicate(6, 3, 12)
    assert decompose(12, 3).terms == (5, 2, 1)
    with pytest.raises(ValueError):
        uniqueness_predicate(6, 3, 0)
    with pytest.raises(ValueError, match="k >= 2"):
        uniqueness_predicate(4, 1, 4)


def test_extremal_shadow_is_extremal_small():
    # over every extremal family of C([5], 3) via the slow path
    for m in range(1, binom(5, 3) + 1):
        for family in enumerate_extremal(5, 3, m):
            if family.k > 1:
                assert is_extremal(shadow(family))
    # and over every extremal family of C([6], 3) that the tables flag
    layer = _layer(6, 3)
    for m, patterns in every_size(6, 3).items():
        for pattern in patterns:
            edges = shadow(layer.family(pattern))
            assert len(edges) == kk_bound(m, 3, 1)
            assert len(shadow(edges)) == kk_bound(len(edges), 2, 1)


def test_witness_implies_extremal():
    # a single certifying element is already proof of extremality; in
    # particular no non-extremal family may have one
    from shadowlab.families import compact_support

    pool4 = list(combinations(range(1, 5), 3))
    for m in range(1, len(pool4) + 1):
        for chosen in combinations(pool4, m):
            family = compact_support(KFamily.from_sets(4, 3, chosen))
            if family.n < 3:
                continue
            witnessed = any(
                certify_by_witness(family, x) for x in range(1, family.n + 1)
            )
            if witnessed:
                assert is_extremal(family)
            if is_extremal(family):
                assert witnessed  # full verdict implies every element certifies

    rng = random.Random(20240613)
    pool6 = list(combinations(range(1, 7), 3))
    for _ in range(250):
        m = rng.randint(1, 12)
        family = compact_support(KFamily.from_sets(6, 3, rng.sample(pool6, m)))
        if family.n < 3:
            continue
        witnessed = any(
            certify_by_witness(family, x) for x in range(1, family.n + 1)
        )
        assert witnessed == is_extremal(family)
