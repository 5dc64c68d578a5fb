"""One fresh benchmark process: imports shadowlab and runs one job on it.

    python worker.py '<json job>'

``run.py`` starts this once per pass, so every pass pays for its own import
and its own layer tables, as a user's fresh process does.  The last line of
stdout is one JSON object with the time the import returned, the pass's
outputs for checking, its per-request latencies and, when traced, its spans.
The job names the work: a workload pass, an import probe, or one half of the
tracemalloc memory pass.  Only public names of shadowlab are called.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
import time
from itertools import combinations

JOB = json.loads(sys.argv[1])
importlib.import_module(JOB.get("import", "shadowlab"))
IMPORT_DONE = time.clock_gettime(time.CLOCK_MONOTONIC)

# the package imports every submodule but the CLI, so these bind, not load
import shadowlab  # noqa: E402
from shadowlab import constructions, exact, extremal, families, identities, inequalities  # noqa: E402

clock = time.perf_counter


class Recorder:
    """Times each call into the program; with tracing on, also keeps a span
    per call (name, start, end, and the phase span that caused it)."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[dict] = []
        self.requests: list[float] = []
        self.phase: dict | None = None
        self.origin = clock()

    def start_phase(self, name: str) -> None:
        self.end_phase()
        if self.traced:
            self.phase = {"id": len(self.spans), "name": name, "parent": None,
                          "start": clock() - self.origin}
            self.spans.append(self.phase)

    def end_phase(self) -> None:
        if self.phase is not None:
            self.phase["end"] = clock() - self.origin
            self.phase = None

    def call(self, name: str, item: str, fn, *args, **kwargs):
        """One request: one call into the program.  ``item`` names the part
        of the workload it serves (an oracle layer, one reduction), which all
        of that part's spans share."""
        start = clock()
        result = fn(*args, **kwargs)
        end = clock()
        self.requests.append(end - start)
        if self.traced:
            self.spans.append({
                "id": len(self.spans), "name": name, "parent": self.phase["id"],
                "item": item, "start": start - self.origin, "end": end - self.origin,
            })
        return result


# ---------------------------------------------------------------------------
# layer-sweep

LAYERS = [(n, k) for k in (2, 3) for n in range(2, 7) if k <= n]


def layer_sweep(rec: Recorder, rng: random.Random) -> dict:
    out: dict = {"oracle": {}, "iso_classes": {}}
    rec.start_phase("oracles")
    for n, k in LAYERS:
        sizes = list(range(1, exact.binom(n, k) + 1))
        rng.shuffle(sizes)
        for m in sizes:
            out["oracle"][f"{n},{k},{m}"] = rec.call(
                "extremal.brute_force_min_shadow", f"oracle {n},{k}",
                extremal.brute_force_min_shadow, n, k, m,
            )
    rec.start_phase("characterization")
    sweep = rec.call("extremal.characterization_sweep", "characterization",
                     extremal.characterization_sweep, 6, 3)
    out["characterization"] = {
        "checked": sweep["checked"],
        "extremal": sweep["extremal"],
        "mismatches": sweep["mismatches"][:10],
    }
    rec.start_phase("min-degree")
    out["min_degree"] = rec.call("extremal.min_degree_sweep", "min-degree",
                                 extremal.min_degree_sweep, 6, 3)
    rec.start_phase("iso-classes")
    for m in range(1, 21):
        classes = rec.call("extremal.extremal_iso_classes", f"iso {m}",
                           extremal.extremal_iso_classes, 6, 3, m)
        out["iso_classes"][m] = [list(c.masks) for c in classes]
    rec.end_phase()
    return out


def layer_sweep_check_data() -> dict:
    """Program outputs the checks need beyond the pass itself (untimed)."""
    return {
        "unique": {m: extremal.uniqueness_predicate(6, 3, m) for m in range(1, 21)},
        "enumerated": {
            m: [list(f.masks) for f in extremal.enumerate_extremal(6, 3, m)]
            for m in range(1, 21)
        },
    }


# ---------------------------------------------------------------------------
# split-sweeps

GENERAL_LEVEL_SCALES = [(2, 10, 3), (3, 8, 2), (5, 8, 1)]


def reduction_identities(wall, b, c, k, outcome):
    from_seq = identities.BinomialSum.from_seq
    seq_side = (
        from_seq(b, k) + from_seq(c, k)
        - from_seq(outcome.b_out, k) - from_seq(outcome.c_out, k)
        - outcome.pavement.to_sum() - outcome.shared
    )
    wall_side = (
        wall.expand() - outcome.wall_out.expand()
        - outcome.rubble.to_sum() - outcome.shared
    )
    return seq_side, wall_side


def split_sweeps(rec: Recorder, counterexamples: list, instances: list) -> dict:
    Seq = exact.Seq
    out: dict = {"lemma": {}, "general_level": {}, "counterexamples": [], "reductions": []}
    rec.start_phase("lemma")
    for k in range(2, 6):
        res = rec.call("inequalities.lemma_sweep", f"lemma {k}",
                       inequalities.lemma_sweep, k, 10)
        out["lemma"][f"{k},10"] = {"checked": res["checked"],
                                   "violations": res["violations"][:10]}
    rec.start_phase("counterexamples")
    for i, (a, b, c, k) in enumerate(counterexamples):
        rep = rec.call("inequalities.check_abc", f"counterexample {i}",
                       inequalities.check_abc, *(Seq(tuple(t), lv) for t, lv in (a, b, c)), k)
        out["counterexamples"].append({
            "hypotheses": rep.hypotheses,
            "rows": {i: [r.lhs, r.rhs] for i, r in rep.inequality_at.items()},
            "equality_at_1": rep.equality_at_1,
            "equality_propagates": rep.equality_propagates,
        })
    rec.start_phase("general-level")
    for k, amax, shift in GENERAL_LEVEL_SCALES:
        res = rec.call("inequalities.general_level_sweep", f"general {k},{amax},{shift}",
                       inequalities.general_level_sweep, k, amax, kmax_shift=shift)
        out["general_level"][f"{k},{amax},{shift}"] = {
            "checked": res["checked"], "violations": res["violations"][:10]}
    rec.start_phase("splits")
    res = rec.call("inequalities.splits_comparison", "splits",
                   inequalities.splits_comparison, amax=8, kmax=5)
    out["splits"] = {"checked": res["checked"], "extras": res["extras"][:10],
                     "missing": res["missing"][:10]}
    rec.start_phase("reductions")
    for i, (w, level, b_terms, c_terms, k) in enumerate(instances):
        wall, b, c = identities.Wall(tuple(w), level), Seq(tuple(b_terms), k), Seq(tuple(c_terms), k)
        item = f"reduce {i}"
        outcome = rec.call("identities.recursive_reduce", item,
                           identities.recursive_reduce, wall, b, c, k)
        seq_side, wall_side = reduction_identities(wall, b, c, k, outcome)
        verdicts = [
            rec.call("identities.is_invariantly_zero", item,
                     identities.is_invariantly_zero, side)
            for side in (seq_side, wall_side)
        ]
        out["reductions"].append({
            "wall_out": {"w": list(outcome.wall_out.w), "level": outcome.wall_out.level},
            "b_out": list(outcome.b_out.terms),
            "c_out": list(outcome.c_out.terms),
            "rubble": list(outcome.rubble.uppers),
            "pavement": list(outcome.pavement.columns),
            "shared": [[u, l, cf] for (u, l), cf in outcome.shared.items()],
            "identities_invariant": verdicts,
        })
    rec.end_phase()
    return out


# ---------------------------------------------------------------------------
# per-module probes for the traced run (never part of a timed pass)

def mean_call_seconds(fn, args_list, repeats: int) -> float:
    start = clock()
    for _ in range(repeats):
        for args in args_list:
            fn(*args)
    return (clock() - start) / (repeats * len(args_list))


def split_layer_probes() -> dict:
    """Mean cost of binom and of seq_value/seq_shift over the argument grid
    the split sweeps evaluate, and of the published forbidden-pair report."""
    binom_grid = [(x, j) for x in range(-2, 13) for j in range(-1, 9)]
    seqs = []
    for k in range(2, 6):
        for length in range(1, k + 1):
            for terms in combinations(range(10, 0, -1), length):
                if terms[-1] >= k - length + 1 >= 1:
                    seqs.append(exact.Seq(terms, k))
    seq_calls = [(s, s.level - 1) for s in seqs]
    shift_calls = [(s, 1, 1, s.level) for s in seqs]
    seq_value_s = (
        mean_call_seconds(exact.seq_value, seq_calls, 20)
        + mean_call_seconds(exact.seq_shift, shift_calls, 20)
    ) / 2
    spec = constructions.ForbiddenPairSpec.complete_pairs(120, 4, 4, regular_deletion=(29, 2))
    return {
        "exact.binom_ns": mean_call_seconds(exact.binom, binom_grid, 200) * 1e9,
        "exact.seq_value_us": seq_value_s * 1e6,
        "constructions.forbidden_pair_cardinalities_ms": mean_call_seconds(
            constructions.forbidden_pair_cardinalities, [(spec,)], 200) * 1e3,
    }


def canonical_form_ms() -> float:
    """Mean canonical_form cost over every extremal subfamily of C([6], 3)."""
    fams = [f for m in range(1, 21) for f in extremal.enumerate_extremal(6, 3, m)]
    return mean_call_seconds(families.canonical_form, [(f,) for f in fams], 1) * 1e3


def memory_pass(part: str) -> dict:
    """tracemalloc peaks above the traced memory at each call's start."""
    import tracemalloc

    def peak_mb(fn, *args) -> float:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20

    if part == "oracle-characterization":
        tracemalloc.start()
        return {
            "extremal.oracle_cold_peak_mb": peak_mb(extremal.brute_force_min_shadow, 6, 3, 10),
            "extremal.characterization_sweep_peak_mb": peak_mb(
                extremal.characterization_sweep, 6, 3),
        }
    extremal.brute_force_min_shadow(6, 3, 10)  # tables built untraced, as in a pass
    tracemalloc.start()
    return {"extremal.min_degree_sweep_peak_mb": peak_mb(extremal.min_degree_sweep, 6, 3)}


def main() -> None:
    kind = JOB["kind"]
    result: dict = {"import_done": IMPORT_DONE, "module": shadowlab.__file__}
    if kind == "memory":
        result["metrics"] = memory_pass(JOB["part"])
    elif kind in ("layer-sweep", "split-sweeps"):
        rec = Recorder(JOB["trace"])
        start = clock()
        if kind == "layer-sweep":
            outputs = layer_sweep(rec, random.Random(JOB["seed"]))
        else:
            outputs = split_sweeps(rec, JOB["counterexamples"], JOB["instances"])
        result["run_s"] = clock() - start
        if kind == "layer-sweep":
            outputs.update(layer_sweep_check_data())
        result["outputs"] = outputs
        result["requests"] = rec.requests
        if JOB["trace"]:
            result["spans"] = rec.spans
            if kind == "layer-sweep":
                result["metrics"] = {"families.canonical_form_ms": canonical_form_ms()}
            else:
                result["metrics"] = split_layer_probes()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
