"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import random
import time

from shadowlab.exact import EMPTY, Seq, binom, decompose, seq_value
from shadowlab.families import initial_segment, shadow
from shadowlab.extremal import (
    _extremal_patterns,
    _layer,
    brute_force_min_shadow,
    characterization_sweep,
    extremal_iso_classes,
    kk_bound,
    shadow_chain_check,
    uniqueness_predicate,
)
from shadowlab.identities import (
    BinomialSum,
    diagonal_difference,
    is_invariantly_zero,
    recursive_reduce,
    vertical_difference,
)
from shadowlab.inequalities import (
    check_abc,
    conjecture_scan,
    lemma_sweep,
    splits_comparison,
)
from shadowlab.constructions import ForbiddenPairSpec, forbidden_pair_cardinalities

from test_identity import check_outcome, random_valid_instance


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_1_kk_oracle_equivalence():
    start = time.time()
    checked = 0
    layers = [(n, k) for n in range(2, 7) for k in (2, 3) if k <= n]
    # the layers of 21 sets and (7,3), whose 21 pairs index its closure table
    for n, k in layers + [(7, 2), (7, 3), (7, 5)]:
        for m in range(1, binom(n, k) + 1):
            assert brute_force_min_shadow(n, k, m) == kk_bound(m, k, 1), (n, k, m)
            checked += 1
    elapsed = time.time() - start
    report(
        1,
        elapsed <= 300,
        f"brute-force minimum shadow equals the cascade bound on all "
        f"{checked} instances with n <= 6, k in {{2,3}}, and at (7,2), (7,3) "
        f"and (7,5) ({elapsed:.1f}s)",
    )


def test_criterion_2_characterization_equivalence():
    start = time.time()
    result = characterization_sweep(6, 3)
    elapsed = time.time() - start
    ok = result["mismatches"] == [] and result["checked"] == 2**20 - 1
    report(
        2,
        ok and elapsed <= 600,
        f"characterization verdict matches extremality on all {result['checked']} "
        f"nonempty subfamilies of the (6,3) layer, {result['extremal']} extremal, "
        f"0 mismatches ({elapsed:.1f}s)",
    )


def test_criterion_3_lemma_sweep_and_counterexamples():
    start = time.time()
    checked = 0
    for k, pinned in ((2, 6270), (3, 48863), (4, 184645), (5, 382266)):
        result = lemma_sweep(k, 10)
        assert result["violations"] == [], result["violations"][:3]
        assert result["checked"] == pinned
        checked += result["checked"]

    # the three published counterexample triples, each violating exactly the
    # named hypothesis and exactly the named conclusion
    r1 = check_abc(Seq((4, 2), 3), Seq((3, 2, -10), 3), Seq((-10, -42), 2), 3)
    assert r1.hypotheses["equality_base"]
    assert not r1.hypotheses["nonneg"]
    assert r1.hypotheses["lex"] and r1.hypotheses["b_nonempty"]
    assert not r1.inequality_at[1].holds

    r2 = check_abc(Seq((1,), 1), EMPTY, Seq((0,), 0), 1)
    assert r2.hypotheses["equality_base"]
    assert not r2.hypotheses["b_nonempty"]
    assert r2.hypotheses["nonneg"]
    assert not r2.inequality_at[1].holds

    r3 = check_abc(Seq((3, 2, 1), 3), Seq((3, 0), 3), Seq((2, 1), 2), 3)
    assert r3.hypotheses["equality_base"]
    assert not r3.hypotheses["b_lower_bounds"]
    assert r3.hypotheses["nonneg"] and r3.hypotheses["lex"]
    assert r3.equality_at_1 and not r3.equality_propagates
    assert all(r3.inequality_at[i].holds for i in range(4))

    elapsed = time.time() - start
    report(
        3,
        True,
        f"zero violations over {checked} hypothesis-satisfying triples "
        f"(k <= 5, a_0 <= 10), propagation holds, and the three published "
        f"counterexamples reproduce their exact failure patterns ({elapsed:.1f}s)",
    )


def test_criterion_4_published_arithmetic_instance():
    start = time.time()
    spec = ForbiddenPairSpec.complete_pairs(120, 4, 4, regular_deletion=(29, 2))
    rep = forbidden_pair_cardinalities(spec)
    ok = (
        rep["base"]["cascade"] == [119, 112, 104, 58]
        and rep["base"]["shadow_cascade"] == [119, 112, 105]
        and rep["base"]["extremal"]
        and rep["deletion"]["size"] == 58
        and rep["thinned"]["cascade"] == [119, 112, 104]
        and not rep["thinned"]["extremal"]
        and rep["element_outside_pairs"]["link"]["cascade"] == [118, 111, 102]
        and rep["element_outside_pairs"]["link"]["shadow_cascade"] == [118, 112]
        and rep["element_outside_pairs"]["deleted"]["cascade"] == [118, 111, 103, 1]
        and rep["element_outside_pairs"]["deleted"]["shadow_cascade"]
        == [118, 111, 104]
        and rep["element_inside_pairs"]["deleted"]["cascade"] == [118, 114, 112, 52]
        and rep["element_inside_pairs"]["deleted"]["shadow_cascade"]
        == [118, 114, 113]
        and rep["element_outside_pairs"]["link"]["extremal"]
        and rep["element_outside_pairs"]["deleted"]["extremal"]
        and rep["element_inside_pairs"]["link"]["extremal"]
        and rep["element_inside_pairs"]["deleted"]["extremal"]
    )
    elapsed = time.time() - start
    report(
        4,
        ok and elapsed <= 1.0,
        "the (120,4,4,t=29,r=2) instance reproduces all published cascade "
        f"decompositions digit-for-digit; parts extremal, whole not ({elapsed:.3f}s)",
    )


def test_criterion_5_uniqueness_at_desk_scale():
    start = time.time()
    classes = {m: len(extremal_iso_classes(6, 3, m)) for m in range(1, 21)}
    predicate = {m: uniqueness_predicate(6, 3, m) for m in range(1, 21)}
    ok = all((classes[m] == 1) == predicate[m] for m in classes)
    ok = ok and classes[12] >= 2 and classes[19] == 1
    elapsed = time.time() - start
    report(
        5,
        ok and elapsed <= 900,
        f"isomorphism classes per size at (6,3): {classes}; exactly one class "
        f"iff the uniqueness predicate holds, with {classes[12]} classes at "
        f"m=12 and {classes[19]} at m=19 ({elapsed:.1f}s)",
    )


def test_criterion_6_shadow_chain():
    start = time.time()
    layer = _layer(6, 3)
    patterns = _extremal_patterns(6, 3, range(1, 21))
    chained = 0
    for m, plist in patterns.items():
        a = decompose(m, 3)
        want_pairs = seq_value(a, 2)
        want_points = seq_value(a, 1)
        for pattern in plist:
            edges = shadow(layer.family(pattern))
            assert len(edges) == want_pairs
            assert len(shadow(edges)) == want_points
            chained += 1
    segments = 0
    for n in range(2, 9):
        for k in range(2, min(4, n) + 1):
            for m in range(1, binom(n, k) + 1):
                assert shadow_chain_check(initial_segment(n, k, m))
                segments += 1
    elapsed = time.time() - start
    report(
        6,
        True,
        f"every iterated shadow meets its bound for all {chained} extremal "
        f"(6,3) families and all {segments} initial segments with n <= 8, "
        f"k <= 4 ({elapsed:.1f}s)",
    )


def test_criterion_7_identity_engine():
    start = time.time()
    for n in range(0, 13):
        for k in range(0, 7):
            for i in range(1, 6):
                assert is_invariantly_zero(diagonal_difference(n, k, i))
                assert is_invariantly_zero(vertical_difference(n, k, i))
    hidden = BinomialSum({(1, 0): 1, (0, 0): -1, (0, -1): -1})
    assert is_invariantly_zero(hidden)
    assert not is_invariantly_zero(BinomialSum({(1, 0): 1, (0, 0): -1}))

    rng = random.Random(20240612)
    for _ in range(50):
        wall, b, c, k = random_valid_instance(rng)
        outcome = recursive_reduce(wall, b, c, k)
        check_outcome(wall, b, c, k, outcome)
    elapsed = time.time() - start
    report(
        7,
        elapsed <= 60,
        "window identities and the hidden-coefficient example decide exactly "
        "as stated; 50 seeded reductions all pass both invariant identities "
        f"and terminate ({elapsed:.1f}s)",
    )


def test_criterion_8_equality_splits():
    start = time.time()
    result = splits_comparison(amax=8, kmax=5)
    elapsed = time.time() - start
    ok = result["extras"] == [] and result["missing"] == []
    assert result["checked"] == 158
    report(
        8,
        ok,
        f"closed-form equality splits match exhaustive search on all "
        f"{result['checked']} cascades with a_0 <= 8, k <= 5; extra splits "
        f"reported: {len(result['extras'])} ({elapsed:.1f}s)",
    )


def test_criterion_9_conjecture_scan():
    start = time.time()
    worst = float("inf")
    for k in (3, 4, 5):
        xs = [k + 0.25 * i for i in range(int((12 - k) / 0.25) + 1)]
        rep = conjecture_scan(k, xs)
        worst = min(worst, rep.min_slack)
        assert rep.near_violations == []
    elapsed = time.time() - start
    report(
        9,
        worst >= -1e-9,
        f"real-variable scan over x in [k, 12] step 0.25, k in {{3,4,5}}: "
        f"minimum slack {worst:.2e} >= -1e-9; no counterexample on the grid "
        f"({elapsed:.1f}s)",
    )
