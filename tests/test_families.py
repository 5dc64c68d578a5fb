"""Bit-vector k-set families: shadows, colex machinery, isomorphism, JSON."""

from __future__ import annotations

import io
import random
from itertools import combinations

import pytest

from shadowlab import families
from shadowlab.exact import binom, decompose
from shadowlab.families import (
    BudgetError,
    KFamily,
    _stable_refine,
    are_isomorphic,
    canonical_form,
    colex_rank,
    colex_unrank,
    compact_support,
    degree,
    delete_star,
    from_dict,
    initial_segment,
    iterated_shadow,
    join,
    link,
    min_degree_element,
    read_family,
    shadow,
    to_dict,
    upper_shadow,
    write_family,
)


def fam(n, k, *sets):
    return KFamily.from_sets(n, k, sets)


def test_shadow_examples():
    assert shadow(fam(3, 3, (1, 2, 3))).sets() == [(1, 2), (1, 3), (2, 3)]
    full = KFamily.from_sets(5, 3, combinations(range(1, 6), 3))
    assert len(shadow(full)) == binom(5, 2) == 10
    seg = initial_segment(5, 3, 4)
    assert seg.sets() == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert shadow(seg).sets() == [
        (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4),
    ] or len(shadow(seg)) == 6
    assert len(shadow(seg)) == binom(4, 2) == 6


def test_shadow_requires_positive_k():
    singletons = fam(3, 1, (1,), (3,))
    zero = shadow(singletons)
    assert zero.k == 0 and zero.sets() == [()]
    with pytest.raises(ValueError):
        shadow(zero)


def test_iterated_shadow():
    tri = fam(4, 3, (1, 2, 3))
    assert iterated_shadow(tri, 0) is tri or iterated_shadow(tri, 0).masks == tri.masks
    assert iterated_shadow(tri, 2).sets() == [(1,), (2,), (3,)]
    with pytest.raises(ValueError):
        iterated_shadow(tri, 4)


def test_upper_shadow():
    assert upper_shadow(fam(4, 2, (1, 2)), 1).sets() == [(1, 2, 3), (1, 2, 4)]
    n = 7
    pair = fam(n, 2, (2, 5))
    assert len(upper_shadow(pair, 1)) == n - 2
    with pytest.raises(ValueError):
        upper_shadow(fam(4, 2, (1, 2)), 3)


def test_upper_shadow_matches_its_definition():
    # every (k+s)-subset of [n] that holds some member, for every family of
    # four small layers, the empty one included, at every step count
    for n, k in ((4, 1), (4, 2), (5, 2), (5, 3)):
        layer = list(combinations(range(1, n + 1), k))
        for pattern in range(1 << len(layer)):
            members = [set(s) for i, s in enumerate(layer) if pattern >> i & 1]
            family = KFamily.from_sets(n, k, members)
            for s in range(n - k + 1):
                expected = [
                    t for t in combinations(range(1, n + 1), k + s)
                    if any(member <= set(t) for member in members)
                ]
                assert sorted(upper_shadow(family, s).sets()) == expected, (n, k, pattern, s)


def test_shadow_steps_refused_over_budget():
    # the bounds |F| * C(k, j) and |F| * C(n - k, j) over the steps j are
    # checked before anything is enumerated
    whole = fam(64, 64, tuple(range(1, 65)))
    assert len(iterated_shadow(whole, 3)) == binom(64, 3)
    with pytest.raises(BudgetError, match=r"step 32 may reach 1 \* C\(64, 32\) = "):
        iterated_shadow(whole, 40)
    single = fam(40, 1, (1,))
    assert len(upper_shadow(single, 3)) == binom(39, 3)
    with pytest.raises(BudgetError, match="over the shadow budget of 2000000$"):
        upper_shadow(single, 10)


def test_link_and_delete_star():
    family = fam(4, 3, (1, 2, 3), (2, 3, 4))
    assert link(family, 4).sets() == [(2, 3)]
    assert delete_star(family, 4).sets() == [(1, 2, 3)]
    for x in range(1, 5):
        assert len(link(family, x)) == degree(family, x)
        assert len(family) == len(delete_star(family, x)) + degree(family, x)


def test_degree_and_min_degree():
    full = KFamily.from_sets(5, 3, combinations(range(1, 6), 3))
    for x in range(1, 6):
        assert degree(full, x) == binom(4, 2) == 6
    seg = initial_segment(6, 3, 12)
    assert degree(seg, 6) == 2
    assert min_degree_element(seg) == 6
    assert sum(degree(seg, x) for x in range(1, 7)) == 3 * len(seg)
    with pytest.raises(ValueError):
        min_degree_element(fam(4, 2))


def test_link_of_initial_segment():
    seg = initial_segment(6, 3, 12)
    assert link(seg, 6).sets() == [(1, 2), (1, 3)]
    assert delete_star(seg, 6).masks == KFamily.from_sets(
        6, 3, combinations(range(1, 6), 3)
    ).masks


def test_colex_rank_examples():
    assert colex_rank((2, 3, 4)) == 3
    assert colex_rank((1, 2, 3)) == 0
    for r in range(20):
        assert colex_rank(colex_unrank(r, 3)) == r


def test_colex_round_trip_all_small_sets():
    for k in range(1, 7):
        for xs in combinations(range(1, 13), k):
            assert colex_unrank(colex_rank(xs), k) == xs


def test_numeric_order_is_colex_order():
    def colex_le(x, y):
        sx, sy = set(x), set(y)
        diff = sx ^ sy
        return (not diff) or max(diff) in sy

    sets = list(combinations(range(1, 9), 4))
    masks = {s: sum(1 << (e - 1) for e in s) for s in sets}
    for a, b in combinations(sets, 2):
        assert (masks[a] < masks[b]) == (colex_le(a, b) and a != b)


def test_initial_segment_block_structure():
    seg = initial_segment(6, 3, 12)
    expected = [tuple(s) for s in combinations(range(1, 6), 3)] + [(1, 2, 6), (1, 3, 6)]
    assert sorted(seg.sets()) == sorted(expected)
    # block decomposition across a window, driven by the cascade sequence
    for n, k in ((6, 3), (7, 3), (8, 4), (7, 2)):
        for m in range(binom(n, k) + 1):
            seg = initial_segment(n, k, m)
            a = decompose(m, k)
            blocks: set[int] = set()
            prefix_mask = 0
            for i, ai in enumerate(a.terms):
                for sub in combinations(range(1, ai + 1), k - i):
                    blocks.add(prefix_mask | sum(1 << (e - 1) for e in sub))
                prefix_mask |= 1 << ai  # element a_i + 1
            assert blocks == set(seg.masks), (n, k, m)


def test_initial_segment_by_successor_matches_colex_unrank(monkeypatch):
    # the segment is listed by Gosper's successor, with colex_unrank as its
    # oracle at every size of every layer with n <= 9, and it never unranks
    expected = {
        (n, k): [colex_unrank(r, k) for r in range(binom(n, k))]
        for n in range(1, 10)
        for k in range(1, n + 1)
    }

    def refused(rank, k):
        raise AssertionError("initial_segment unranked a set")

    monkeypatch.setattr(families, "colex_unrank", refused)
    for (n, k), sets in expected.items():
        for m in range(len(sets) + 1):
            assert initial_segment(n, k, m).sets() == sets[:m], (n, k, m)


def test_join():
    assert join(fam(2, 2, (1, 2)), [(6,)]).sets() == [(1, 2, 6)]
    assert join([[1, 2]], [[6]]).sets() == [(1, 2, 6)]
    with pytest.raises(ValueError):
        join([[1, 2], [2, 3]], [[2], [5]])  # mixed union sizes


def test_isomorphism_examples():
    seg = initial_segment(6, 3, 12)
    twin = KFamily.from_sets(
        6, 3, list(combinations(range(1, 6), 3)) + [(1, 2, 6), (2, 3, 6)]
    )
    assert are_isomorphic(seg, twin)
    forb = KFamily.from_sets(
        6,
        3,
        [
            s
            for s in combinations(range(1, 7), 3)
            if not ({1, 2} <= set(s) or {3, 4} <= set(s))
        ],
    )
    assert sorted(degree(seg, x) for x in range(1, 7)) == [2, 6, 6, 7, 7, 8]
    assert sorted(degree(forb, x) for x in range(1, 7)) == [5, 5, 5, 5, 8, 8]
    assert not are_isomorphic(seg, forb)
    assert are_isomorphic(seg, seg)


def test_canonical_form_is_iso_invariant():
    rng = random.Random(99)
    pool = list(combinations(range(1, 7), 3))
    for _ in range(60):
        m = rng.randint(1, 8)
        base = KFamily.from_sets(6, 3, rng.sample(pool, m))
        perm = list(range(1, 7))
        rng.shuffle(perm)
        image = KFamily.from_sets(
            6, 3, ([perm[e - 1] for e in s] for s in base.sets())
        )
        assert are_isomorphic(base, image)
        assert canonical_form(base) == canonical_form(image)
        other = KFamily.from_sets(6, 3, rng.sample(pool, m))
        assert are_isomorphic(base, other) == (
            canonical_form(base) == canonical_form(other)
        )


def test_isomorphism_is_equivalence_on_corpus():
    rng = random.Random(5)
    pool = list(combinations(range(1, 6), 3))
    corpus = [
        KFamily.from_sets(5, 3, rng.sample(pool, rng.randint(1, 6))) for _ in range(12)
    ]
    for a in corpus:
        assert are_isomorphic(a, a)
        for b in corpus:
            assert are_isomorphic(a, b) == are_isomorphic(b, a)
            for c in corpus:
                if are_isomorphic(a, b) and are_isomorphic(b, c):
                    assert are_isomorphic(a, c)


def test_canonical_form_symmetric_supports():
    # vertex-transitive structures need the individualization search
    rng = random.Random(1)
    cyc = KFamily.from_sets(
        10, 3, [((i % 10) + 1, ((i + 1) % 10) + 1, ((i + 3) % 10) + 1) for i in range(10)]
    )
    c1 = canonical_form(cyc)
    for _ in range(3):
        perm = list(range(1, 11))
        rng.shuffle(perm)
        image = KFamily.from_sets(10, 3, ([perm[e - 1] for e in s] for s in cyc.sets()))
        assert canonical_form(image) == c1
    full = KFamily.from_sets(10, 2, combinations(range(1, 11), 2))
    assert canonical_form(full).masks == full.masks
    # same degree profile, different structure: one 10-cycle vs two 5-cycles
    c10 = KFamily.from_sets(10, 2, [((i % 10) + 1, ((i + 1) % 10) + 1) for i in range(10)])
    c55 = KFamily.from_sets(
        10,
        2,
        [((i % 5) + 1, ((i + 1) % 5) + 1) for i in range(5)]
        + [((i % 5) + 6, ((i + 1) % 5) + 6) for i in range(5)],
    )
    assert not are_isomorphic(c10, c55)


def test_canonical_form_relabeling_fuzz():
    rng = random.Random(321)
    for _ in range(80):
        s = rng.randint(7, 9)
        pool = list(combinations(range(1, s + 1), 3))
        fam = KFamily.from_sets(s, 3, rng.sample(pool, rng.randint(2, 12)))
        if len(fam.support()) != s:
            continue
        perm = list(range(1, s + 1))
        rng.shuffle(perm)
        image = KFamily.from_sets(s, 3, ([perm[e - 1] for e in t] for t in fam.sets()))
        assert canonical_form(fam) == canonical_form(image)


def _unpruned_canonical_form(family: KFamily) -> KFamily:
    """The oracle for ``canonical_form``: the same individualization-
    refinement tree, refined by ``families._stable_refine``, walked to every
    leaf with no automorphism pruning, and the least leaf image taken."""
    support = family.support()
    s = len(support)
    position = {x: p for p, x in enumerate(support)}
    members = [[position[e] for e in elems] for elems in family.sets()]
    incidence = [sum(1 << i for i, m in enumerate(members) if p in m) for p in range(s)]
    rows = [
        [(y, (incidence[x] & incidence[y]).bit_count()) for y in range(s) if y != x]
        for x in range(s)
    ]
    images = []

    def walk(color):
        ambiguous = [c for c in sorted(set(color)) if color.count(c) > 1]
        if not ambiguous:
            images.append(tuple(sorted(sum(1 << color[p] for p in m) for m in members)))
            return
        for chosen in [x for x in range(s) if color[x] == ambiguous[0]]:
            split = [(c, x != chosen) for x, c in enumerate(color)]
            ranks = {v: i for i, v in enumerate(sorted(set(split)))}
            walk(_stable_refine([ranks[v] for v in split], rows))

    walk(_stable_refine([bits.bit_count() for bits in incidence], rows))
    return KFamily(s, family.k, min(images))


def _petersen() -> KFamily:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return KFamily.from_sets(10, 2, outer + [(i, i + 5) for i in range(1, 6)] + inner)


def _complete_bipartite(a: int, b: int) -> KFamily:
    edges = [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)]
    return KFamily.from_sets(a + b, 2, edges)


FANO = KFamily.from_sets(
    7, 3, [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]
)
K333 = KFamily.from_sets(
    9, 3, [(a, b, c) for a in (1, 2, 3) for b in (4, 5, 6) for c in (7, 8, 9)]
)

SYMMETRIC = (
    [KFamily.from_sets(n, 2, [(i, i % n + 1) for i in range(1, n + 1)]) for n in range(3, 11)]
    + [_complete_bipartite(a, b) for a, b in ((1, 4), (2, 3), (2, 4), (3, 3), (3, 4))]
    + [FANO, K333, _petersen()]
)


def _relabelings(family: KFamily, rng: random.Random, count: int) -> list[KFamily]:
    out = []
    for _ in range(count):
        perm = list(range(1, family.n + 1))
        rng.shuffle(perm)
        sets = ([perm[e - 1] for e in s] for s in family.sets())
        out.append(KFamily.from_sets(family.n, family.k, sets))
    return out


def test_canonical_form_matches_unpruned_search():
    # automorphism pruning skips subtrees whose leaf images an explored
    # subtree already gave, so the least image must equal the full walk's
    from shadowlab.extremal import enumerate_extremal

    corpus = [
        f
        for n, k in ((5, 2), (6, 2), (6, 3), (6, 4))
        for m in range(1, binom(n, k) + 1)
        for f in enumerate_extremal(n, k, m)
    ]
    rng = random.Random(28)
    for _ in range(100):
        s = rng.randint(2, 9)
        pool = list(combinations(range(1, s + 1), rng.randint(1, min(s, 4))))
        chosen = rng.sample(pool, rng.randint(1, min(len(pool), 10)))
        corpus.append(KFamily.from_sets(s, len(pool[0]), chosen))
    # random families are mostly rigid, so pruning needs families with
    # automorphisms: unions of orbits of random k-sets under the cyclic
    # group of a random permutation
    for _ in range(400):
        s = rng.randint(4, 7)
        k = rng.randint(2, 3)
        perm = list(range(1, s + 1))
        rng.shuffle(perm)
        sets = set()
        for _ in range(rng.randint(1, 3)):
            orbit = tuple(sorted(rng.sample(range(1, s + 1), k)))
            while orbit not in sets:
                sets.add(orbit)
                orbit = tuple(sorted(perm[e - 1] for e in orbit))
        corpus.append(KFamily.from_sets(s, k, sets))
    for family in corpus:
        assert canonical_form(family) == _unpruned_canonical_form(family), family.sets()
    # the full walk's leaf images do not depend on the labeling, so it runs
    # once per symmetric family; which automorphisms the pruned search
    # finds first, and so what it skips, does
    rng = random.Random(7)
    for base in SYMMETRIC:
        expected = _unpruned_canonical_form(base)
        for family in [base] + _relabelings(base, rng, 20):
            assert canonical_form(family) == expected, family.sets()


def test_search_prunes_by_automorphisms_only(monkeypatch):
    # every map the pruning reads must send the family onto itself
    prune = families._in_orbit
    calls = []

    def checked(x, explored, prefix, automorphisms):
        support = family.support()
        for g in automorphisms:
            image = sorted(
                sum(1 << (support[g[support.index(e)]] - 1) for e in elems)
                for elems in family.sets()
            )
            assert tuple(image) == family.masks, (family.sets(), g)
        calls.append(len(automorphisms))
        return prune(x, explored, prefix, automorphisms)

    monkeypatch.setattr(families, "_in_orbit", checked)
    rng = random.Random(5)
    for family in [f for base in SYMMETRIC for f in [base] + _relabelings(base, rng, 3)]:
        canonical_form(family)
    assert len(calls) > 100


def test_pruned_search_fits_a_small_leaf_budget(monkeypatch):
    # the full walk needs 120, 1,296 and 28,800 leaves for these; pruning
    # leaves a few dozen, and the budget counts only the leaves explored
    monkeypatch.setattr(families, "_ISO_BUDGET", 64)
    for family in (_petersen(), K333, _complete_bipartite(5, 5)):
        assert canonical_form(family) == _unpruned_canonical_form(family), family.sets()
    # the root cell of the vertex-transitive Petersen graph has ten
    # children, and no automorphism is known before a second leaf
    monkeypatch.setattr(families, "_ISO_BUDGET", 1)
    with pytest.raises(BudgetError, match="budget of 1 leaves"):
        canonical_form(_petersen())


def test_compact_support():
    family = fam(9, 2, (2, 5), (5, 9))
    compacted = compact_support(family)
    assert compacted.n == 3 and compacted.sets() == [(1, 2), (2, 3)]


def test_json_round_trip():
    seg = initial_segment(6, 3, 12)
    buf = io.StringIO()
    write_family(seg, buf)
    buf.seek(0)
    again = read_family(buf)
    assert again == seg
    assert to_dict(from_dict(to_dict(seg))) == to_dict(seg)
    # the writer emits colex order
    ranks = [colex_rank(s) for s in to_dict(seg)["sets"]]
    assert ranks == sorted(ranks)
    with pytest.raises(ValueError):
        from_dict({"n": 3, "k": 2, "sets": [[1, 2], [1, 2]]})
    with pytest.raises(ValueError):
        from_dict({"n": 3, "k": 0, "sets": []})
    with pytest.raises(ValueError):
        from_dict({"n": 3, "k": 2, "sets": [[1, 4]]})
    with pytest.raises(ValueError):
        from_dict({"n": 3, "k": 2, "sets": [[1, 2, 3]]})
    with pytest.raises(ValueError):
        from_dict({"k": 2, "sets": []})
    for bad in (
        {"n": 4, "k": 2, "sets": [[True, 2]]},
        {"n": 4, "k": 2, "sets": [["1", "2"]]},
        {"n": 4, "k": 2, "sets": 5},
        {"n": 4, "k": True, "sets": [[1]]},
    ):
        with pytest.raises(ValueError):
            from_dict(bad)


def test_shadow_of_segment_is_segment():
    from shadowlab.extremal import kk_bound

    for n in range(2, 9):
        for k in range(1, min(4, n) + 1):
            for m in range(1, binom(n, k) + 1):
                seg = initial_segment(n, k, m)
                if k == 1:
                    continue
                expect = initial_segment(n, k - 1, kk_bound(m, k, 1))
                assert shadow(seg).masks == expect.masks, (n, k, m)


def test_shadow_superadditivity_small():
    # |shadow(S)| >= |shadow(S minus star)| + |shadow(link)|, exhaustively at
    # n = 5 and sampled at n = 6
    def check(family: KFamily) -> None:
        for x in family.support():
            lhs = len(shadow(family))
            s1 = delete_star(family, x)
            s0 = link(family, x)
            rhs = (len(shadow(s1)) if s1.masks else 0) + (
                len(shadow(s0)) if s0.masks else 0
            )
            assert lhs >= rhs

    pool5 = list(combinations(range(1, 6), 3))
    for m in range(1, len(pool5) + 1):
        for chosen in combinations(pool5, m) if m <= 2 else ():
            check(KFamily.from_sets(5, 3, chosen))
    rng = random.Random(13)
    for _ in range(300):
        m = rng.randint(1, 10)
        check(KFamily.from_sets(5, 3, rng.sample(pool5, m)))
    pool6 = list(combinations(range(1, 7), 3))
    for _ in range(200):
        m = rng.randint(1, 16)
        check(KFamily.from_sets(6, 3, rng.sample(pool6, m)))
