"""Seeded inputs: the reduction batch and the CLI request mix.

The program receives only what these functions generate.  Seeds choose
parameters among inputs of the same cost, so runs with different seeds stay
comparable: every pass of a workload makes the same number of calls, of the
same kinds, whatever the seed.
"""

from __future__ import annotations

import json
import math
import os
import random

import oracle

REDUCTIONS_PER_PASS = 300
# the three published counterexample triples (a, b, c, k), each sequence as
# (terms, level)
COUNTEREXAMPLES = [
    (((4, 2), 3), ((3, 2, -10), 3), ((-10, -42), 2), 3),
    (((1,), 1), ((), 1), ((0,), 0), 1),
    (((3, 2, 1), 3), ((3, 0), 3), ((2, 1), 2), 3),
]

# (6, k, m) with a full-length cascade whose last diagonal starts after index
# 0, the inputs construct perturbed accepts on the ground set [6]
PERTURBED_INPUTS = [
    (6, 2, 4), (6, 2, 7), (6, 2, 8), (6, 2, 11), (6, 2, 12), (6, 2, 13),
    (6, 3, 6), (6, 3, 8), (6, 3, 12), (6, 3, 14), (6, 3, 15), (6, 3, 17),
    (6, 3, 18), (6, 4, 8), (6, 4, 11), (6, 4, 13),
]
# sizes with exactly 60 extremal families in C([6], 3), so the canonical-form
# work of an enumerate request does not depend on the seed
ENUMERATE_SIZES = [3, 7, 9, 11, 13]
# two requests that crash today; both should end in a one-line error, exit 2
CRASH_REDUCE = ["reduce", "--wall", "2:0", "--b", "2,1", "--k", "2"]
STRING_FAMILY = {"n": 4, "k": 2, "sets": [["1", "2"], ["1", "3"]]}


def reduction_instance(rng: random.Random):
    """Rejection-sample a wall and a cascade pair (b, c) with c <= b
    componentwise, both strictly dominated by the wall."""
    while True:
        k = rng.randint(1, 4)
        level = rng.randint(0, 7)
        h = rng.randint(0, min(level, 4))
        w = sorted((rng.randint(1, k) for _ in range(h + 1)), reverse=True)
        b_cap = min(9, k + level)
        if b_cap < k:
            continue
        b: list[int] = []
        prev = b_cap + 1
        for i in range(rng.randint(1, k)):
            if prev - 1 < k - i:
                break
            b.append(rng.randint(k - i, prev - 1))
            prev = b[-1]
        else:
            c: list[int] = []
            prev = 10**9
            for i in range(rng.randint(0, len(b))):
                hi = min(b[i], prev - 1)
                if hi < k - i:
                    break
                c.append(rng.randint(k - i, hi))
                prev = c[-1]
            else:
                if (
                    oracle.is_cascade_shape(b, k)
                    and oracle.is_cascade_shape(c, k)
                    and oracle.dominates(w, level, b, k)
                    and oracle.dominates(w, level, c, k)
                ):
                    return w, level, b, c, k


def reduction_batch(seed: int) -> list:
    rng = random.Random(f"reductions-{seed}")
    return [reduction_instance(rng) for _ in range(REDUCTIONS_PER_PASS)]


def window_identity(rng: random.Random) -> list[tuple[int, int, int]]:
    """C(n,k) minus its i-step diagonal or vertical expansion: invariantly 0."""
    n, k, i = rng.randint(2, 12), rng.randint(1, 6), rng.randint(1, 5)
    if rng.random() < 0.5:
        rest = [(n - s, k - s + 1, -1) for s in range(1, i + 1)] + [(n - i, k - i, -1)]
    else:
        rest = [(n - s, k - 1, -1) for s in range(1, i + 1)] + [(n - i, k, -1)]
    return [(n, k, 1)] + rest


def sum_text(terms) -> str:
    return "".join(f"{'-' if c < 0 else '+'}C({u},{l})" for u, l, c in terms)


def request(kind: str, argv: list[str], expect: int = 0, **check) -> dict:
    """One CLI invocation: the subcommand it counts under, its arguments, the
    exit code a correct run gives, and what its report is checked against."""
    return {"kind": kind, "argv": argv, "expect": expect, "check": check}


def cli_mix(seed: int, workdir: str) -> list[list[dict]]:
    """The request mix as units; a unit's requests run in order (a family
    file is written before it is read back), units in a seeded order.
    Twenty requests in all."""
    rng = random.Random(f"cli-{seed}")
    units: list[list[dict]] = []
    for _ in range(2):
        m, k = rng.randint(1, 10**6), rng.randint(2, 6)
        units.append([request("decompose", ["decompose", str(m), str(k)],
                              seq=oracle.cascade(m, k))])
    for _ in range(2):
        m, k = rng.randint(1, 10**5), rng.randint(2, 5)
        i = rng.randint(1, k - 1)
        units.append([request("bound", ["bound", str(m), str(k), "--iter", str(i)],
                              bound=oracle.kk_bound(m, k, i))])

    n, k = rng.choice([(7, 3), (8, 3), (7, 4), (8, 4)])
    m = rng.randint(math.comb(n - 1, k) + 1, math.comb(n, k))  # full support
    path = os.path.join(workdir, "colex.json")
    segment = oracle.layer(n, k)[:m]
    units.append([
        request("construct", ["construct", "colex", str(n), str(k), str(m), "--out", path],
                colex=[n, k, segment], path=path),
        request("check", ["check", "--in", path, "--mode", "both", "--chain"],
                extremal_family=[n, k, segment]),
        request("shadow", ["shadow", "--in", path],
                shadow=[n, k - 1, sorted(oracle.shadow(segment))], size=m),
    ])

    n, k = rng.choice([(4, 2), (5, 2), (4, 3), (5, 3)])
    m = rng.randint(1, math.comb(n, k))
    units.append([request("oracle", ["oracle", "min-shadow", str(n), str(k), str(m)],
                          min_shadow=oracle.kk_bound(m, k))])
    for _ in range(2):
        m = rng.randint(1, 20)
        units.append([request("oracle", ["oracle", "min-shadow", "6", "3", str(m)],
                              min_shadow=oracle.kk_bound(m, 3))])
    for m in (rng.choice(ENUMERATE_SIZES), 12):
        units.append([request("enumerate", ["enumerate", "6", "3", str(m), "--up-to-iso"],
                              classes_of=m)])

    units.append([request("construct", ["construct", "forbidden-pairs", "120", "4", "4",
                                        "--t", "29", "--r", "2"], forbidden_pairs=True)])
    n, k, m = rng.choice(PERTURBED_INPUTS)
    units.append([request("construct", ["construct", "perturbed", str(n), str(k), str(m)],
                          perturbed=[n, k, m])])
    k = rng.choice([3, 4])
    units.append([request("verify", ["verify", "conjecture", "--k", str(k), "--xmax", "8",
                                     "--step", "0.5", "--y-samples", "21"],
                          conjecture=[k, 8.0, 0.5, 21])])

    w, level, b, c, k = reduction_instance(rng)
    units.append([request("reduce", [
        "reduce", "--wall", ",".join(map(str, w)) + f":{level}",
        "--b", ",".join(map(str, b)), f"--c={','.join(map(str, c))}", "--k", str(k),
    ], reduction=[w, level, b, c, k])])

    zero = window_identity(rng)
    broken = zero[:-1]
    units.append([request("identity", ["identity", "check", "--sum", sum_text(zero)],
                          identity=zero)])
    units.append([request("identity", ["identity", "check", "--sum", sum_text(broken)],
                          expect=1, identity=broken)])

    bad = os.path.join(workdir, "strings.json")
    with open(bad, "w", encoding="utf-8") as fp:
        json.dump(STRING_FAMILY, fp)
    units.append([request("reduce", CRASH_REDUCE, expect=2, error=True)])
    units.append([request("check", ["check", "--in", bad], expect=2, error=True)])
    rng.shuffle(units)
    return units
