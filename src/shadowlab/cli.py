"""Command-line surface with deterministic JSON reports.

Exit codes: 0 for success / true verdicts, 1 for a false verdict (for
example a non-extremal family), 2 for usage or precondition errors, 3 for
budget or overflow errors.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys

# only the standard library and the arithmetic load with this module: each
# subcommand imports the engines it calls, so a request compiles no other
from .exact import BudgetError, ExactOverflowError, Seq, decompose, kk_bound


_command_echo: list[str] = []


def _emit(report: dict) -> None:
    # every report opens with the invoking arguments; timing is deliberately
    # omitted so identical inputs stay byte-identical
    payload = {"command": list(_command_echo), **report}
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _load_family(path: str):
    from .families import read_family

    with open(path, "r", encoding="utf-8") as fp:
        return read_family(fp)


def _save_family(family, path: str) -> None:
    from .families import write_family

    text = io.StringIO()
    write_family(family, text)  # refuses k < 1 before the file is opened
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text.getvalue())


def _cmd_decompose(args) -> int:
    seq = decompose(args.m, args.k)
    _emit({"m": args.m, "k": args.k, "seq": list(seq.terms)})
    return 0


def _cmd_bound(args) -> int:
    value = kk_bound(args.m, args.k, args.iter)
    _emit({"m": args.m, "k": args.k, "iter": args.iter, "bound": value})
    return 0


def _cmd_shadow(args) -> int:
    from .families import iterated_shadow, to_dict, upper_shadow

    family = _load_family(args.infile)
    if args.upper is not None:
        result = upper_shadow(family, args.upper)
    else:
        result = iterated_shadow(family, 1 if args.iter is None else args.iter)
    report = {"input_size": len(family), "result": to_dict(result)}
    if args.out:
        _save_family(result, args.out)
    _emit(report)
    return 0


def _cmd_check(args) -> int:
    from dataclasses import asdict

    from .extremal import certify_by_witness, characterize, is_extremal, shadow_chain_check
    from .families import compact_support

    family = _load_family(args.infile)
    if args.compact:
        family = compact_support(family)
    report: dict = {"n": family.n, "k": family.k, "size": len(family)}
    verdicts: list[bool] = []
    if args.mode in ("direct", "both"):
        direct = is_extremal(family)
        report["extremal"] = direct
        verdicts.append(direct)
    if args.mode in ("characterize", "both"):
        char = characterize(family)
        report["characterize"] = {
            "verdict": char.verdict,
            "cascade": list(char.cascade),
            "witnesses": list(char.witnesses),
            "elements": [asdict(e) for e in char.elements],
        }
        verdicts.append(char.verdict)
    if args.witness is not None:
        witness = certify_by_witness(family, args.witness)
        report["witness"] = {"x": args.witness, "certifies": witness}
        verdicts.append(witness)
    if args.chain:
        chain = shadow_chain_check(family)
        report["chain"] = chain
        verdicts.append(chain)
    _emit(report)
    return 0 if all(verdicts) else 1


def _cmd_enumerate(args) -> int:
    from .extremal import enumerate_extremal
    from .families import to_dict

    families = enumerate_extremal(
        args.n, args.k, args.m, up_to_iso=args.up_to_iso, method=args.method
    )
    _emit(
        {
            "n": args.n,
            "k": args.k,
            "m": args.m,
            "method": args.method,
            "up_to_iso": args.up_to_iso,
            "count": len(families),
            "families": [to_dict(f) for f in families],
        }
    )
    return 0


def _cmd_oracle(args) -> int:
    # the bound the answer is compared with is defined from k = 2
    if args.k < 2:
        raise ValueError("the min-shadow oracle needs k >= 2")
    from .extremal import brute_force_min_shadow

    value = brute_force_min_shadow(args.n, args.k, args.m)
    bound = kk_bound(args.m, args.k, 1)
    _emit(
        {
            "n": args.n,
            "k": args.k,
            "m": args.m,
            "min_shadow": value,
            "bound": bound,
            "matches_bound": value == bound,
        }
    )
    return 0 if value == bound else 1


def _cmd_construct(args) -> int:
    from .families import initial_segment, to_dict

    report: dict
    family = None
    if args.what == "colex":
        family = initial_segment(args.n, args.k, args.m)
        report = {"kind": "colex"}
    elif args.what == "forbidden-pairs":
        from .constructions import (
            ForbiddenPairSpec,
            forbidden_pair_cardinalities,
            forbidden_pair_family,
        )

        if (args.t is None) != (args.r is None):
            raise ValueError("--t and --r go together: give both or neither")
        deletion = (args.t, args.r) if args.t is not None else None
        spec = ForbiddenPairSpec.complete_pairs(args.n, args.k, args.m, deletion)
        report = {
            "kind": "forbidden-pairs",
            "arithmetic": forbidden_pair_cardinalities(spec),
        }
        if args.materialize:
            family = forbidden_pair_family(spec)
            report["materialized_size"] = len(family)
    elif args.what == "example32":
        from .constructions import example_32_family

        family = example_32_family(args.n, args.k, args.variant)
        designated = args.n if args.variant == "b" else args.n + 1
        report = {"kind": f"example32-{args.variant}", "designated_element": designated}
    elif args.what == "example33":
        from .constructions import example_33_family

        family = example_33_family(args.n, args.k)
        report = {"kind": "example33", "designated_element": family.n}
    else:  # "perturbed", the last name argparse allows
        from .constructions import perturbed_colex

        result = perturbed_colex(args.n, args.k, args.m)
        family = result.family
        report = {
            "kind": "perturbed",
            "outcome": result.kind,
            "removed": list(result.removed),
            "added": list(result.added),
        }
    if family is not None:
        report["family"] = to_dict(family)
        # the pair construction's verdicts are in its arithmetic report
        if args.what != "forbidden-pairs":
            from .extremal import is_extremal

            report["extremal"] = is_extremal(family)
        if args.out:
            _save_family(family, args.out)
    _emit(report)
    return 0


def _cmd_verify(args) -> int:
    if args.what == "lemma-abc":
        from .inequalities import lemma_sweep

        if args.kmax < 2:
            raise ValueError("the sweep needs kmax >= 2")
        # a level past amax holds no cascade; level 2 still refuses amax < 2
        levels = range(2, min(args.kmax, max(args.amax, 2)) + 1)
        results = [lemma_sweep(k, args.amax) for k in levels]
        report = {
            "amax": args.amax,
            "kmax": args.kmax,
            "checked": sum(r["checked"] for r in results),
            "violations": [v for r in results for v in r["violations"]],
        }
        ok = not report["violations"]
    elif args.what == "splits":
        from .inequalities import splits_comparison

        report = splits_comparison(args.amax, args.kmax)
        ok = not report["extras"] and not report["missing"]
    elif args.what == "min-degree":
        from .extremal import min_degree_sweep

        checked = min_degree_sweep(args.n, args.k)
        report = {"n": args.n, "k": args.k, "checked": checked, "violations": []}
        ok = True
    elif args.what == "uniqueness":
        from .extremal import extremal_class_counts, uniqueness_predicate

        if not args.n >= args.k >= 2:
            raise ValueError("the uniqueness check needs n >= k >= 2")
        rows = []
        for m, classes in extremal_class_counts(args.n, args.k).items():
            predicted = uniqueness_predicate(args.n, args.k, m)
            agree = (classes == 1) == predicted
            rows.append(
                {"m": m, "classes": classes, "unique_predicted": predicted, "agree": agree}
            )
        ok = all(row["agree"] for row in rows)
        report = {"n": args.n, "k": args.k, "rows": rows, "equivalence": ok}
    else:  # "conjecture", the last name argparse allows
        from .inequalities import SCAN_BUDGET, conjecture_scan

        if not (math.isfinite(args.xmax) and math.isfinite(args.step) and args.step > 0):
            raise ValueError("need a finite --xmax and a finite --step > 0")
        # refused before xs is built; span is inf where the step underflows, and
        # the y count is clipped so that the float product cannot overflow
        span = (args.xmax - args.k) / args.step
        y_counted = min(max(args.y_samples, 1), SCAN_BUDGET + 1)
        if span >= 0 and (span + 1) * y_counted > SCAN_BUDGET:
            raise BudgetError(
                f"a grid of {span + 1:,.0f} points times {args.y_samples} y samples "
                f"exceeds the scan budget of {SCAN_BUDGET}"
            )
        steps = int(round(span)) if math.isfinite(span) else -1  # -inf: no point
        xs = [args.k + i * args.step for i in range(steps + 1)]
        scan = conjecture_scan(args.k, xs, y_samples=args.y_samples)
        report = {
            "k": args.k,
            "xmax": args.xmax,
            "step": args.step,
            "min_slack": scan.min_slack,
            "argmin": list(scan.argmin),
            "near_violations": [list(v) for v in scan.near_violations],
        }
        ok = not scan.near_violations
    _emit(report)
    return 0 if ok else 1


def _parse_seq(text: str, level: int) -> Seq:
    text = text.strip()
    if not text:
        return Seq((), level)
    return Seq(tuple(int(x) for x in text.split(",")), level)


def _parse_wall(text: str):
    from .identities import Wall

    body, _, level = text.partition(":")
    if not level:
        raise ValueError("wall format is w0,w1,..:level")
    w = tuple(int(x) for x in body.split(",")) if body.strip() else ()
    return Wall(w, int(level))


def _cmd_reduce(args) -> int:
    from .identities import recursive_reduce

    wall = _parse_wall(args.wall)
    b = _parse_seq(args.b, args.k)
    c = _parse_seq(args.c, args.k)
    # recursive_reduce raises unless both reduction identities hold
    outcome = recursive_reduce(wall, b, c, args.k)
    _emit(
        {
            "wall_out": {"w": list(outcome.wall_out.w), "level": outcome.wall_out.level},
            "b_out": list(outcome.b_out.terms),
            "c_out": list(outcome.c_out.terms),
            "rubble": list(outcome.rubble.uppers),
            "pavement": list(outcome.pavement.columns),
            "shared": [[u, l, c_] for (u, l), c_ in outcome.shared.items()],
            "identities_invariant": [True, True],
        }
    )
    return 0


_TERM_RE = re.compile(
    r"\s*([+-]?)\s*(?:(\d+)\s*\*\s*)?C\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)"
)


def parse_binomial_sum(text: str):
    """Parse sums like ``C(1,0) - C(0,0) - C(0,-1)`` or ``2*C(5,3) + C(4,2)``
    into an ``identities.BinomialSum``."""
    from .identities import BinomialSum

    pos = 0
    terms = []
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if not match:
            if text[pos:].strip():
                raise ValueError(f"cannot parse binomial sum near {text[pos:]!r}")
            break
        sign, coeff, upper, lower = match.groups()
        value = int(coeff) if coeff else 1
        if sign == "-":
            value = -value
        terms.append(((int(upper), int(lower)), value))
        pos = match.end()
    if not terms:
        raise ValueError("empty binomial sum")
    return BinomialSum(terms)


def _cmd_identity(args) -> int:
    from .identities import is_invariantly_zero, is_zero_on_grid

    total = parse_binomial_sum(args.sum)
    invariant = is_invariantly_zero(total)
    _emit(
        {
            "sum": args.sum,
            "invariantly_zero": invariant,
            "zero_on_grid": is_zero_on_grid(total),
            "pointwise_value": total.evaluate(),
        }
    )
    return 0 if invariant else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors as the one ``error:`` line and exit 2 of every other
    refused input; subparsers inherit the class."""

    def error(self, message: str):
        sys.stderr.write(f"error: {' '.join(message.split())}\n")
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shadowlab",
        description="Exact shadow-minimization toolkit for k-set families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the shared positionals, declared once and copied into each leaf
    mk = argparse.ArgumentParser(add_help=False)
    mk.add_argument("m", type=int)
    mk.add_argument("k", type=int)
    nk = argparse.ArgumentParser(add_help=False)
    nk.add_argument("n", type=int)
    nk.add_argument("k", type=int)
    nkm = argparse.ArgumentParser(add_help=False, parents=[nk])
    nkm.add_argument("m", type=int)

    p = sub.add_parser("decompose", parents=[mk], help="cascade decomposition of m at level k")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("bound", parents=[mk], help="minimum shadow bound for m sets at level k")
    p.add_argument("--iter", type=int, default=1)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("shadow", help="iterated or upper shadow of a family file")
    p.add_argument("--in", dest="infile", required=True)
    steps = p.add_mutually_exclusive_group()
    # no defaults: argparse takes an exclusive option whose value is its default object as not given
    steps.add_argument("--iter", type=int)
    steps.add_argument("--upper", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_shadow)

    p = sub.add_parser("check", help="extremality and characterization checks")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument(
        "--mode", choices=("direct", "characterize", "both"), default="direct"
    )
    p.add_argument("--witness", type=int)
    p.add_argument("--chain", action="store_true")
    p.add_argument("--compact", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("enumerate", parents=[nkm], help="all extremal families of one size")
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--method", choices=("exhaustive", "recursive"), default="exhaustive")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("oracle", help="brute-force oracles")
    p.set_defaults(func=_cmd_oracle)
    p.add_subparsers(dest="oracle", required=True).add_parser("min-shadow", parents=[nkm])

    p = sub.add_parser("construct", help="explicit families")
    p.set_defaults(func=_cmd_construct)
    con = p.add_subparsers(dest="what", required=True)
    q = con.add_parser("colex", parents=[nkm])
    q.add_argument("--out")
    q = con.add_parser("forbidden-pairs", parents=[nkm])
    q.add_argument("--t", type=int)
    q.add_argument("--r", type=int)
    q.add_argument("--materialize", action="store_true")
    q.add_argument("--out")
    q = con.add_parser("example32", parents=[nk])
    q.add_argument("--variant", choices=("b", "c"), default="b")
    q.add_argument("--out")
    con.add_parser("example33", parents=[nk]).add_argument("--out")
    con.add_parser("perturbed", parents=[nkm]).add_argument("--out")

    p = sub.add_parser("verify", help="exhaustive verification sweeps")
    p.set_defaults(func=_cmd_verify)
    ver = p.add_subparsers(dest="what", required=True)
    q = ver.add_parser("lemma-abc")
    q.add_argument("--amax", type=int, default=10)
    q.add_argument("--kmax", type=int, default=5)
    q = ver.add_parser("splits")
    q.add_argument("--amax", type=int, default=8)
    q.add_argument("--kmax", type=int, default=5)
    ver.add_parser("min-degree", parents=[nk])
    ver.add_parser("uniqueness", parents=[nk])
    q = ver.add_parser("conjecture")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--xmax", type=float, default=12.0)
    q.add_argument("--step", type=float, default=0.25)
    q.add_argument("--y-samples", type=int, default=41)

    p = sub.add_parser("reduce", help="wall reduction of a dominated pair")
    p.add_argument("--wall", required=True, help="w0,w1,..:level")
    p.add_argument("--b", required=True, help="comma-separated terms")
    p.add_argument("--c", default="", help="comma-separated terms (may be empty)")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("identity", help="translation-invariance decision")
    p.set_defaults(func=_cmd_identity)
    idsub = p.add_subparsers(dest="identity", required=True)
    idsub.add_parser("check").add_argument("--sum", required=True)

    return parser


# options whose values may start with "-" (a negated term, a negative wall
# entry); argparse would read such a value as an option
_SIGNED_VALUE_OPTIONS = ("--sum", "--wall", "--b", "--c")


def _join_signed_values(argv: list[str]) -> list[str]:
    """``--sum -C(1,0)`` as ``--sum=-C(1,0)``: each option above takes the
    next token as its value when that token starts with one "-"."""
    joined: list[str] = []
    for token in argv:
        if (
            joined
            and joined[-1] in _SIGNED_VALUE_OPTIONS
            and token.startswith("-")
            and not token.startswith("--")
        ):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    _command_echo[:] = argv
    try:
        args = parser.parse_args(_join_signed_values(argv))
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (BudgetError, ExactOverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # a fault in shadowlab itself, never a verdict
        message = " ".join(str(exc).split())
        sys.stderr.write(f"error: internal: {type(exc).__name__}: {message}\n")
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
