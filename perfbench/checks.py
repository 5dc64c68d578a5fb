"""Checks of the program's outputs against computations made apart from it.

Each function returns a list of problems; an empty list means the outputs
are correct.  Nothing here imports shadowlab: the expected values come from
``oracle`` and from ``reference.json``.
"""

from __future__ import annotations

import json
import math

import mix
import oracle

GROUND = 6
TRANSLATES = (-2, 4)  # reduction identities must vanish on this square of shifts


def full_support_count(n: int, k: int) -> int:
    """Subfamilies of C([n], k) covering all of [n], by inclusion-exclusion."""
    return sum(
        (-1) ** j * math.comb(n, j) * 2 ** math.comb(n - j, k) for j in range(n + 1)
    )


def class_problems(label: str, reps: list, m: int, expected: int,
                   relabel: oracle.Relabelings, enumerated=None) -> list[str]:
    """Iso-class representatives of the extremal m-subfamilies of C([6], 3):
    pairwise non-isomorphic, each extremal, and their orbits, found by brute
    force over all relabelings of [6], add up to every extremal family."""
    problems = []
    for masks in reps:
        if len(masks) != m or any(x.bit_count() != 3 or x >> GROUND for x in masks):
            problems.append(f"{label}: {masks} is not an m-family of 3-sets of [6]")
        elif not oracle.is_extremal(masks, 3):
            problems.append(f"{label}: representative {masks} is not extremal")
    if problems:
        return problems
    keys = {relabel.key(masks) for masks in reps}
    if len(keys) != len(reps):
        problems.append(f"{label}: two representatives are isomorphic")
    total = sum(math.factorial(GROUND) // relabel.automorphisms(masks) for masks in reps)
    if total != expected:
        problems.append(f"{label}: orbits cover {total} families, not {expected}")
    if enumerated is not None:
        if len(enumerated) != expected:
            problems.append(f"{label}: enumerate_extremal gave {len(enumerated)} families")
        orbits = set().union(*(relabel.orbit(masks) for masks in reps))
        if any(tuple(sorted(f)) not in orbits for f in enumerated):
            problems.append(f"{label}: an enumerated family lies in no class's orbit")
    return problems


def layer_sweep(out: dict, reference: dict, relabel: oracle.Relabelings) -> list[str]:
    problems = []
    expected_keys = {
        f"{n},{k},{m}"
        for k in (2, 3)
        for n in range(k, 7)
        for m in range(1, math.comb(n, k) + 1)
    }
    if set(out["oracle"]) != expected_keys:
        problems.append("brute_force_min_shadow: the pass missed some (n, k, m)")
    for key, value in out["oracle"].items():
        n, k, m = map(int, key.split(","))
        if value != oracle.kk_bound(m, k):
            problems.append(f"brute_force_min_shadow{(n, k, m)} = {value}, "
                            f"bound {oracle.kk_bound(m, k)}")
    counts = {int(m): c for m, c in reference["extremal_6_3"].items()}
    char = out["characterization"]
    if char["checked"] != 2**20 - 1 or char["mismatches"]:
        problems.append(f"characterization_sweep: {char['checked']} checked, "
                        f"mismatches {char['mismatches']}")
    if char["extremal"] != sum(counts.values()):
        problems.append(f"characterization_sweep: {char['extremal']} extremal, "
                        f"reference {sum(counts.values())}")
    if out["min_degree"] != full_support_count(6, 3):
        problems.append(f"min_degree_sweep checked {out['min_degree']}, "
                        f"reference {full_support_count(6, 3)}")
    for m in range(1, 21):
        reps = out["iso_classes"][str(m)]
        problems += class_problems(f"extremal_iso_classes(6,3,{m})", reps, m, counts[m],
                                   relabel, out["enumerated"][str(m)])
        if out["unique"][str(m)] != (len(reps) == 1):
            problems.append(f"m={m}: {len(reps)} classes but uniqueness_predicate "
                            f"says {out['unique'][str(m)]}")
    return problems


# the published failure patterns of mix.COUNTEREXAMPLES: which hypotheses hold
HYPOTHESES = [
    {"equality_base": True, "nonneg": False, "lex": True, "b_nonempty": True},
    {"equality_base": True, "b_nonempty": False, "nonneg": True},
    {"equality_base": True, "b_lower_bounds": False, "nonneg": True, "lex": True},
]


def counterexample_problems(reports: list) -> list[str]:
    problems = []
    for i, (((a, _), (b, _), (c, _), k), hyps, rep) in enumerate(
            zip(mix.COUNTEREXAMPLES, HYPOTHESES, reports)):
        for name, want in hyps.items():
            if rep["hypotheses"].get(name) != want:
                problems.append(f"counterexample {i}: hypothesis {name} is not {want}")
        for row in range(k + 1):
            want = [oracle.cascade_value(list(a), k - row),
                    oracle.cascade_value(list(b), k - row)
                    + oracle.cascade_value(list(c), k - 1 - row)]
            if rep["rows"][str(row)] != want:
                problems.append(f"counterexample {i}: row {row} is {rep['rows'][str(row)]}, "
                                f"expected {want}")
    holds = [[lhs <= rhs for lhs, rhs in rep["rows"].values()] for rep in reports]
    if holds[0][1] or holds[1][1]:
        problems.append("counterexamples 0 and 1 must fail the inequality at i = 1")
    if not all(holds[2]) or not reports[2]["equality_at_1"] or reports[2]["equality_propagates"]:
        problems.append("counterexample 2 must hold everywhere, with equality at i = 1 "
                        "that does not propagate")
    return problems


def reduction_problems(label: str, instance, rep: dict) -> list[str]:
    w, level, b, c, k = instance
    problems = []
    for name, terms in zip(("sequence", "wall"),
                           oracle.reduction_identities(w, level, b, c, k, rep)):
        if not oracle.zero_on_translates(terms, *TRANSLATES):
            problems.append(f"{label}: the {name}-side identity fails under a translate")
    if rep["identities_invariant"] != [True, True]:
        problems.append(f"{label}: is_invariantly_zero gave {rep['identities_invariant']}")
    if rep["wall_out"]["w"] and (rep["b_out"] or rep["c_out"]):
        problems.append(f"{label}: stopped before a terminal state")
    if not (oracle.is_cascade_shape(rep["b_out"], k) and oracle.is_cascade_shape(rep["c_out"], k)):
        problems.append(f"{label}: the output sequences are not cascades")
    return problems


def split_sweeps(out: dict, instances: list, reference: dict) -> list[str]:
    problems = []
    for name, results in (("lemma_sweep", out["lemma"]),
                          ("general_level_sweep", out["general_level"])):
        for scale, res in results.items():
            if res["violations"]:
                problems.append(f"{name}({scale}): violations {res['violations']}")
            if res["checked"] != reference[name][scale]:
                problems.append(f"{name}({scale}) checked {res['checked']}, "
                                f"naive count {reference[name][scale]}")
    splits = out["splits"]
    if splits["extras"] or splits["missing"]:
        problems.append(f"splits_comparison: extras {splits['extras']}, "
                        f"missing {splits['missing']}")
    if splits["checked"] != reference["splits_comparison"]["8,5"]:
        problems.append(f"splits_comparison checked {splits['checked']}")
    problems += counterexample_problems(out["counterexamples"])
    for i, (instance, rep) in enumerate(zip(instances, out["reductions"])):
        problems += reduction_problems(f"reduction {i} {instance}", instance, rep)
    return problems


# ---------------------------------------------------------------------------
# CLI reports

def family_dict(n: int, k: int, masks) -> dict:
    return {"n": n, "k": k, "sets": [oracle.elements_of(x) for x in sorted(masks)]}


def masks_from(family: dict) -> list[int]:
    return [oracle.mask_of(s) for s in family["sets"]]


def forbidden_pair_problems(rep: dict) -> list[str]:
    """The published (n=120, k=4, m=4, t=29, r=2) digits, and every reported
    cascade and extremality verdict recomputed from its size."""
    a = rep["arithmetic"]
    outside, inside = a["element_outside_pairs"], a["element_inside_pairs"]
    published = [
        (a["base"]["cascade"], [119, 112, 104, 58]),
        (a["base"]["shadow_cascade"], [119, 112, 105]),
        (a["deletion"]["size"], 58),
        (a["thinned"]["cascade"], [119, 112, 104]),
        (outside["link"]["cascade"], [118, 111, 102]),
        (outside["link"]["shadow_cascade"], [118, 112]),
        (outside["deleted"]["cascade"], [118, 111, 103, 1]),
        (outside["deleted"]["shadow_cascade"], [118, 111, 104]),
        (inside["deleted"]["cascade"], [118, 114, 112, 52]),
        (inside["deleted"]["shadow_cascade"], [118, 114, 113]),
        ([a["base"]["extremal"], a["thinned"]["extremal"]], [True, False]),
        ([p[q]["extremal"] for p in (outside, inside) for q in ("link", "deleted")],
         [True] * 4),
    ]
    problems = [f"forbidden-pairs: {got} is not the published {want}"
                for got, want in published if got != want]
    entries = [(a["base"], 4), (a["thinned"], 4)] + [
        (p[q], 3 if q == "link" else 4) for p in (outside, inside) for q in ("link", "deleted")
    ]
    for entry, level in entries:
        if (entry["cascade"] != oracle.cascade(entry["size"], level)
                or entry["shadow_cascade"] != oracle.cascade(entry["shadow"], level - 1)
                or entry["extremal"] != (entry["shadow"] == oracle.kk_bound(entry["size"], level))):
            problems.append(f"forbidden-pairs: entry {entry} disagrees with its own cascade")
    return problems


def perturbed_problems(rep: dict, n: int, k: int, m: int, relabel: oracle.Relabelings) -> list[str]:
    segment = oracle.layer(n, k)[:m]
    removed = oracle.elements_of(segment[-1])
    added = oracle.mask_of(rep["added"])
    problems = []
    if rep["removed"] != removed:
        problems.append(f"perturbed: removed {rep['removed']}, last colex set {removed}")
    in_segment = added in segment
    if (rep["outcome"] == "in_segment") != in_segment:
        problems.append(f"perturbed: outcome {rep['outcome']} but the added set "
                        f"{'is' if in_segment else 'is not'} in the segment")
    if in_segment:
        return problems
    family = sorted(set(segment) - {segment[-1]} | {added})
    if rep["family"] != family_dict(n, k, family):
        problems.append("perturbed: the family is not the segment with one set swapped")
    if oracle.shadow(family) != oracle.shadow(segment) or rep["extremal"] is not True:
        problems.append("perturbed: the swap must keep the segment's shadow")
    isomorphic = relabel.key(family) == relabel.key(segment)
    if (rep["outcome"] == "isomorphic") != isomorphic:
        problems.append(f"perturbed: outcome {rep['outcome']}, brute-force "
                        f"isomorphism {isomorphic}")
    return problems


def one_line_error(stderr: str) -> bool:
    lines = stderr.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


def cli_report(req: dict, rep: dict, reference: dict, relabel: oracle.Relabelings) -> list[str]:
    """Problems with the report of a request that ran to its expected exit code."""
    check = req["check"]
    problems = []
    if rep.get("command") != req["argv"]:
        problems.append(f"report echoes {rep.get('command')}")
    if "seq" in check and rep["seq"] != check["seq"]:
        problems.append(f"decompose gave {rep['seq']}, greedy cascade {check['seq']}")
    if "bound" in check and rep["bound"] != check["bound"]:
        problems.append(f"bound gave {rep['bound']}, expected {check['bound']}")
    if "colex" in check:
        n, k, segment = check["colex"]
        want = family_dict(n, k, segment)
        with open(check["path"], encoding="utf-8") as fp:
            written = json.load(fp)
        if rep["family"] != want or written != want or rep["extremal"] is not True:
            problems.append("construct colex: not the first m colex sets, or not extremal")
    if "extremal_family" in check:
        n, k, segment = check["extremal_family"]
        chain = all(
            len(shadows) == oracle.kk_bound(len(segment), k, i)
            for i, shadows in enumerate(_iterated_shadows(segment, k), start=1)
        )
        if (rep["extremal"], rep["characterize"]["verdict"], rep["chain"]) != (
                oracle.is_extremal(segment, k), oracle.is_extremal(segment, k), chain):
            problems.append("check: verdicts disagree with the family's own shadow counts")
    if "shadow" in check:
        n, k1, masks = check["shadow"]
        if rep["result"] != family_dict(n, k1, masks) or rep["input_size"] != check["size"]:
            problems.append("shadow: not the family's shadow")
    if "min_shadow" in check:
        if (rep["min_shadow"], rep["bound"], rep["matches_bound"]) != (
                check["min_shadow"], check["min_shadow"], True):
            problems.append(f"oracle: min shadow {rep['min_shadow']}, bound {check['min_shadow']}")
    if "classes_of" in check:
        m = check["classes_of"]
        reps = [masks_from(f) for f in rep["families"]]
        if rep["count"] != len(reps):
            problems.append("enumerate: count differs from the families listed")
        problems += class_problems(f"enumerate 6 3 {m}", reps, m,
                                   reference["extremal_6_3"][str(m)], relabel)
    if "forbidden_pairs" in check:
        problems += forbidden_pair_problems(rep)
    if "perturbed" in check:
        problems += perturbed_problems(rep, *check["perturbed"], relabel)
    if "conjecture" in check:
        k, xmax, step, ys = check["conjecture"]
        xs = [k + i * step for i in range(int(round((xmax - k) / step)) + 1)]
        own = oracle.conjecture_min_slack(k, xs, ys)
        if abs(rep["min_slack"] - own) > 1e-9 or own < -1e-9 or rep["near_violations"]:
            problems.append(f"conjecture: min slack {rep['min_slack']}, own scan {own}")
    if "reduction" in check:
        problems += reduction_problems("reduce", check["reduction"], rep)
    if "identity" in check:
        terms = check["identity"]
        want = (req["expect"] == 0, oracle.zero_on_translates(terms, -4, 8),
                oracle.terms_value(terms))
        got = (rep["invariantly_zero"], rep["zero_on_grid"], rep["pointwise_value"])
        if got != want:
            problems.append(f"identity check: {got}, expected {want}")
    return problems


def _iterated_shadows(masks, k: int):
    current = list(masks)
    for _ in range(1, k):
        current = oracle.shadow(current)
        yield current
