"""Explicit family constructions and their verification reports."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from shadowlab import constructions
from shadowlab.exact import binom, decompose
from shadowlab.families import KFamily, are_isomorphic, degree, shadow
from shadowlab.extremal import characterize, is_extremal
from shadowlab.constructions import (
    ForbiddenPairSpec,
    example_32_family,
    example_33_family,
    forbidden_pair_cardinalities,
    forbidden_pair_family,
    perturbed_colex,
    regular_family,
)


def test_colliding_parts_are_refused():
    # parts sharing a set build fewer sets than the construction counts: a
    # fault in this module, raised, never returned as a family
    part = KFamily.from_sets(4, 2, [[1, 2], [3, 4]])
    other = KFamily.from_sets(4, 2, [[1, 3]])
    assert constructions._built(4, 2, 3, part, other).sets() == [(1, 2), (1, 3), (3, 4)]
    with pytest.raises(RuntimeError, match="construction built 2 sets, expected 4"):
        constructions._built(4, 2, 4, part, part)


def test_forbidden_pair_family_small():
    spec = ForbiddenPairSpec.complete_pairs(9, 3, 3)
    family = forbidden_pair_family(spec)
    assert len(family) == 65
    assert binom(6, 3) + 3 * binom(6, 2) == 65
    sh = shadow(family)
    assert len(sh) == 33
    assert binom(6, 2) + 3 * binom(6, 1) == 33
    report = forbidden_pair_cardinalities(spec)
    assert report["base"]["size"] == 65
    assert report["base"]["shadow"] == 33
    assert report["inclusion_exclusion"] == 65


def test_forbidden_pair_materialized_matches_arithmetic():
    for n, k, m in ((9, 3, 3), (10, 3, 4), (11, 4, 3), (12, 4, 4), (8, 3, 3)):
        spec = ForbiddenPairSpec.complete_pairs(n, k, m)
        family = forbidden_pair_family(spec)
        report = forbidden_pair_cardinalities(spec)
        assert len(family) == report["base"]["size"]
        sh = shadow(family)
        assert len(sh) == report["base"]["shadow"]
        # the shadow is exactly the matching (k-1)-construction
        lower = forbidden_pair_family(ForbiddenPairSpec.complete_pairs(n, k - 1, m))
        assert sh.masks == lower.masks


def test_forbidden_pair_deletion_keeps_shadow():
    rng = random.Random(3)
    spec = ForbiddenPairSpec.complete_pairs(9, 3, 3)
    family = forbidden_pair_family(spec)
    base_shadow = shadow(family).masks
    outside = [
        s for s in combinations(range(4, 10), 3)
    ]
    for _ in range(12):
        size = rng.randint(1, len(outside) - 1)
        deletion = KFamily.from_sets(9, 3, rng.sample(outside, size))
        spec_del = ForbiddenPairSpec(9, 3, spec.pairs, deletion=deletion)
        thinned = forbidden_pair_family(spec_del)
        assert len(thinned) == 65 - size
        assert shadow(thinned).masks == base_shadow


def test_thinned_family_keeps_link_inclusion():
    # every link stays inside the deleted star's shadow after thinning,
    # because each pair over the free ground keeps a covering triple
    from shadowlab.families import delete_star, link

    spec = ForbiddenPairSpec.complete_pairs(10, 3, 4, regular_deletion=(2, 2))
    family = forbidden_pair_family(spec)
    report = forbidden_pair_cardinalities(spec)
    assert len(family) == report["thinned"]["size"]
    assert len(shadow(family)) == report["base"]["shadow"]
    for x in family.support():
        lk = link(family, x)
        rest_shadow = shadow(delete_star(family, x))
        assert set(lk.masks) <= set(rest_shadow.masks), x


def test_regular_family():
    matching = regular_family(6, 3, 1)
    assert matching.sets() == [(1, 2, 3), (4, 5, 6)]
    double = regular_family(6, 3, 2)
    assert len(double) == 4
    assert all(degree(double, x) == 2 for x in range(1, 7))
    for t, r in ((5, 2), (4, 3)):
        fam = regular_family(t * 3, 3, r)
        assert len(fam) == t * r
        assert all(degree(fam, x) == r for x in range(1, t * 3 + 1))
    with pytest.raises(ValueError):
        regular_family(7, 3, 1)
    with pytest.raises(ValueError):
        regular_family(6, 3, 4)


def test_published_arithmetic_instance():
    spec = ForbiddenPairSpec.complete_pairs(120, 4, 4, regular_deletion=(29, 2))
    report = forbidden_pair_cardinalities(spec)
    assert report["base"]["cascade"] == [119, 112, 104, 58]
    assert report["base"]["shadow_cascade"] == [119, 112, 105]
    assert report["base"]["extremal"]
    assert report["deletion"]["size"] == 58
    assert report["thinned"]["cascade"] == [119, 112, 104]
    assert not report["thinned"]["extremal"]
    outside = report["element_outside_pairs"]
    assert outside["link"]["cascade"] == [118, 111, 102]
    assert outside["link"]["shadow_cascade"] == [118, 112]
    assert outside["deleted"]["cascade"] == [118, 111, 103, 1]
    assert outside["deleted"]["shadow_cascade"] == [118, 111, 104]
    assert outside["link"]["extremal"] and outside["deleted"]["extremal"]
    inside = report["element_inside_pairs"]
    assert inside["deleted"]["cascade"] == [118, 114, 112, 52]
    assert inside["deleted"]["shadow_cascade"] == [118, 114, 113]
    assert inside["link"]["extremal"] and inside["deleted"]["extremal"]
    # the failure is purely numeric
    assert not outside["numeric_identity"]


def test_example_32_variant_b():
    family = example_32_family(5, 3, "b")
    assert len(family) == binom(5, 3)
    assert not is_extremal(family)
    report = characterize(family)
    assert not report.verdict
    at_n = report.element(5)
    assert at_n.branch == "strict"
    assert at_n.inclusion  # the link sits inside the deleted shadow
    assert not at_n.deleted_extremal  # the designed failure
    assert at_n.link_extremal
    assert not at_n.numeric


def test_example_32_variant_c():
    family = example_32_family(5, 3, "c")
    assert len(family) == binom(5, 3)
    assert not is_extremal(family)
    report = characterize(family)
    at_x = report.element(6)  # n + 1
    assert at_x.branch == "strict"
    assert at_x.inclusion
    assert at_x.deleted_extremal
    assert not at_x.link_extremal  # the designed failure
    assert not report.verdict


def test_example_33():
    family = example_33_family(5, 3)
    assert len(family) == binom(5, 3)
    assert not is_extremal(family)
    report = characterize(family)
    at_x = report.element(family.n)
    assert at_x.branch == "strict"
    assert not at_x.inclusion  # the designed failure: blocks are disjoint
    assert at_x.deleted_extremal and at_x.link_extremal


def test_example_properties_across_sizes():
    pairs = [
        (n, k) for k in range(3, 7) for n in range(k + 1, 12) if 2 * n + 1 <= 24
    ]
    for n, k in pairs:
        fam_b = example_32_family(n, k, "b")
        fam_c = example_32_family(n, k, "c")
        fam_33 = example_33_family(n, k)
        for fam in (fam_b, fam_c, fam_33):
            assert len(fam) == binom(n, k)
            assert not is_extremal(fam)
        rep_b = characterize(fam_b).element(n)
        assert rep_b.inclusion and not rep_b.deleted_extremal
        rep_c = characterize(fam_c).element(n + 1)
        assert rep_c.inclusion and rep_c.deleted_extremal and not rep_c.link_extremal
        rep_33 = characterize(fam_33).element(fam_33.n)
        assert not rep_33.inclusion and rep_33.deleted_extremal and rep_33.link_extremal


def test_perturbed_colex_degenerate_in_segment():
    result = perturbed_colex(6, 3, 12)
    assert decompose(12, 3).terms == (5, 2, 1)
    assert result.degenerate and result.kind == "in_segment"
    assert result.removed == (1, 3, 6)
    assert result.added == (1, 2, 6)
    assert result.family is None


def test_perturbed_colex_degenerate_relabeling():
    # the replacement leaves the segment but the swap is a pure relabeling
    result = perturbed_colex(7, 3, 14)
    assert decompose(14, 3).terms == (5, 3, 1)
    assert result.degenerate and result.kind == "isomorphic"
    family = result.family
    assert family is not None and len(family) == 14
    assert shadow(family).masks == shadow(result.segment).masks
    assert is_extremal(family)
    assert are_isomorphic(family, result.segment)


def test_perturbed_colex_decides_without_the_certificate(monkeypatch):
    # with the transposition certificate failing, are_isomorphic decides; a
    # support too large for its canonical search is refused, never "ok"
    monkeypatch.setattr(constructions, "_transposed", lambda masks, x, y: ())
    assert perturbed_colex(7, 3, 14).kind == "isomorphic"
    with pytest.raises(ValueError, match="support larger"):
        perturbed_colex(11, 2, 46)


def test_perturbed_colex_exhaustive_scan():
    """Every admissible instance at this scale lands in a tagged outcome;
    any "ok" result must carry the full guarantee."""
    outcomes = {"in_segment": 0, "isomorphic": 0, "ok": 0}
    for n in (6, 7, 8):
        for m in range(1, binom(n, 3) + 1):
            a = decompose(m, 3)
            if len(a.terms) != 3:
                continue
            alpha = a.terms[-1]
            r = next(i for i in range(3) if a.terms[i] - (3 - i) == alpha - 1)
            if r == 0:
                with pytest.raises(ValueError):
                    perturbed_colex(n, 3, m)
                continue
            result = perturbed_colex(n, 3, m)
            outcomes[result.kind] += 1
            if result.kind != "in_segment":
                fam = result.family
                assert len(fam) == m
                assert is_extremal(fam)
                assert shadow(fam).masks == shadow(result.segment).masks
            if result.kind == "ok":
                assert not are_isomorphic(fam, result.segment)
    assert outcomes["in_segment"] > 0
    assert outcomes["isomorphic"] > 0


def test_perturbed_colex_preconditions():
    with pytest.raises(ValueError):
        perturbed_colex(6, 3, 19)  # full-layer-minus-one: r = 0
    with pytest.raises(ValueError):
        perturbed_colex(6, 3, 10)  # cascade shorter than k


def test_construction_entry_refusals():
    # each refusal names its domain, with the type and text the CLI prints
    triangle = ((1, 2), (1, 3), (2, 3))  # all pairs inside [3]
    no_sets = KFamily(9, 3, ())
    cases = [
        (lambda: ForbiddenPairSpec(6, 3, ((1, 2), (1, 2))), "repeated pair (1, 2)"),
        (
            lambda: forbidden_pair_family(ForbiddenPairSpec(9, 3, triangle, no_sets, (2, 1))),
            "give either an explicit or a regular deletion",
        ),
        (
            lambda: forbidden_pair_family(ForbiddenPairSpec.complete_pairs(10, 3, 3, (2, 1))),
            "regular deletion needs n = t*k + m",
        ),
        (
            lambda: forbidden_pair_family(
                ForbiddenPairSpec(6, 3, ((1, 2),), KFamily.from_sets(6, 3, [(1, 3, 4)]))
            ),
            "deletion must avoid the forbidden-pair support",
        ),
        (  # a set off the pairs' support lies in the family unless its level differs
            lambda: forbidden_pair_family(
                ForbiddenPairSpec(6, 3, ((1, 2),), KFamily.from_sets(6, 2, [(5, 6)]))
            ),
            "deletion is not inside the family",
        ),
        (
            lambda: forbidden_pair_cardinalities(ForbiddenPairSpec(9, 3, ((1, 2), (3, 4)))),
            "closed-form cardinalities need all pairs inside [m]",
        ),
        (
            lambda: forbidden_pair_cardinalities(ForbiddenPairSpec(9, 3, triangle, no_sets)),
            "the arithmetic report needs a regular deletion shape",
        ),
        (
            lambda: forbidden_pair_cardinalities(ForbiddenPairSpec.complete_pairs(9, 3, 3, (2, 4))),
            "need 1 <= r <= min(k, t)",
        ),
        (
            lambda: forbidden_pair_cardinalities(ForbiddenPairSpec.complete_pairs(9, 3, 3, (2, 0))),
            "need 1 <= r <= min(k, t)",
        ),
        (lambda: example_32_family(33, 3, "b"), "ground set too large"),
        (lambda: example_32_family(5, 3, "d"), "variant must be 'b' or 'c'"),
        (lambda: example_33_family(32, 3), "ground set too large"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as info:
            build()
        assert info.type is ValueError and str(info.value) == message


def test_forbidden_pair_arithmetic_refuses_k_below_3():
    # the link's shadow cascade is taken at level k - 2; the pair-shape, size
    # and deletion checks keep their precedence
    k_domain = "the arithmetic report needs k >= 3"
    cases = [(ForbiddenPairSpec.complete_pairs(8, k, 3), k_domain) for k in (2, 1, 0, -1)]
    cases += [
        (
            ForbiddenPairSpec(9, 2, ((1, 2), (3, 4))),
            "closed-form cardinalities need all pairs inside [m]",
        ),
        (ForbiddenPairSpec.complete_pairs(5, 2, 3), "need m >= 3 and n >= m + 3"),
        (
            ForbiddenPairSpec(9, 2, ((1, 2), (1, 3), (2, 3)), KFamily(9, 2, ())),
            "the arithmetic report needs a regular deletion shape",
        ),
    ]
    for spec, message in cases:
        with pytest.raises(ValueError) as info:
            forbidden_pair_cardinalities(spec)
        assert info.type is ValueError and str(info.value) == message, spec
