"""CLI surface: subcommands, exit codes, JSON determinism, round trips."""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import shadowlab
from shadowlab.cli import main, parse_binomial_sum


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_decompose(capsys):
    code, report = run(capsys, "decompose", "14", "4")
    assert code == 0
    assert report["seq"] == [5, 4, 3, 2]


def test_bound(capsys):
    code, report = run(capsys, "bound", "11", "3")
    assert code == 0
    assert report["bound"] == 12


def test_bound_at_the_top_of_the_range(capsys):
    # 2^127 - 1 = C(2^64, 2) + C(2^63 - 1, 1), whose shadow bound is 2^64 + 1
    code, report = run(capsys, "bound", str(2**127 - 1), "2")
    assert code == 0
    assert report["bound"] == 2**64 + 1


def test_shadow_and_check_round_trip(tmp_path, capsys):
    seg = tmp_path / "seg.json"
    code, report = run(capsys, "construct", "colex", "6", "3", "12", "--out", str(seg))
    assert code == 0
    assert report["extremal"]

    code, report = run(capsys, "check", "--in", str(seg), "--mode", "both", "--chain")
    assert code == 0
    assert report["extremal"] and report["characterize"]["verdict"] and report["chain"]

    code, report = run(capsys, "shadow", "--in", str(seg))
    assert code == 0
    assert len(report["result"]["sets"]) == 13

    code, report = run(capsys, "check", "--in", str(seg), "--witness", "6")
    assert code == 0
    assert report["witness"]["certifies"]


def test_check_both_reports_every_clause(tmp_path, capsys):
    seg = tmp_path / "seg.json"
    run(capsys, "construct", "colex", "6", "3", "12", "--out", str(seg))
    code, report = run(capsys, "check", "--in", str(seg), "--mode", "both")
    assert code == 0
    char = report["characterize"]
    assert char["cascade"] == [5, 2, 1] and char["witnesses"] == [1, 2, 3, 4, 5, 6]
    keys = {
        "x",
        "branch",
        "ok",
        "link_size",
        "deleted_size",
        "threshold",
        "inclusion",
        "deleted_extremal",
        "link_extremal",
        "numeric",
    }
    assert all(set(element) == keys for element in char["elements"])
    assert char["elements"][0] == {
        "x": 1,
        "branch": "equality",
        "ok": True,
        "link_size": 8,
        "deleted_size": 4,
        "threshold": 4,
        "inclusion": True,
        "deleted_extremal": None,
        "link_extremal": True,
        "numeric": None,
    }


def test_check_non_extremal_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"n": 6, "k": 3, "sets": [[1, 2, 3], [4, 5, 6]]}) + "\n"
    )
    code, report = run(capsys, "check", "--in", str(bad))
    assert code == 1
    assert report["extremal"] is False


def test_check_compact_flag(tmp_path, capsys):
    gappy = tmp_path / "gappy.json"
    gappy.write_text(
        json.dumps({"n": 7, "k": 3, "sets": [[1, 2, 3], [1, 2, 7]]}) + "\n"
    )
    code, _ = run(capsys, "check", "--in", str(gappy), "--mode", "characterize")
    assert code == 2  # support gap without compaction
    capsys.readouterr()
    code, report = run(
        capsys, "check", "--in", str(gappy), "--mode", "characterize", "--compact"
    )
    assert code in (0, 1)
    assert report["n"] == 4


def test_enumerate(capsys):
    code, report = run(capsys, "enumerate", "6", "3", "19", "--up-to-iso")
    assert code == 0
    assert report["count"] == 1
    code, report = run(capsys, "enumerate", "5", "3", "4", "--method", "recursive")
    assert code == 0
    assert report["count"] >= 1


def test_enumerate_past_the_sweep_limit(monkeypatch, capsys):
    # (8,2) has 28 sets, over the k-side sweep limit, and is listed from its
    # closure table over the 8 points; a naive scan of all C(28, 3)
    # combinations finds the same families (the 56 triangles)
    from itertools import combinations
    from math import comb

    from shadowlab import extremal
    from shadowlab.families import KFamily, shadow

    code, report = run(capsys, "enumerate", "8", "2", "3")
    assert code == 0
    pairs = list(combinations(range(1, 9), 2))
    naive = [
        chosen
        for chosen in combinations(pairs, 3)
        if len(shadow(KFamily.from_sets(8, 2, chosen))) == 3
    ]
    listed = [tuple(tuple(s) for s in family["sets"]) for family in report["families"]]
    assert report["count"] == len(naive) == 56
    assert sorted(listed) == sorted(naive)
    # (21,2), m = 100: s(100) = 15 points, and each of the C(21, 15) sets T of
    # 15 points spans 105 edges, so the count is C(21, 15) * C(105, 100).  It
    # is refused with exit 3 and one line before any family is listed
    def listing(*args):
        raise AssertionError("listed a family past the budget")

    monkeypatch.setattr(extremal, "combinations", listing)
    start = time.perf_counter()
    assert main(["enumerate", "21", "2", "100"]) == 3
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    count = comb(21, 15) * comb(105, 100)
    assert captured.out == ""
    assert captured.err == (
        f"error: {count} extremal families of 100 sets in C([21], 2) "
        "exceed the enumeration budget of 3000000\n"
    )
    assert elapsed < 10, elapsed  # the closure table of 2^21 entries, no listing


def test_enumerate_refuses_past_the_set_limit(capsys, monkeypatch):
    # the family budget counts families, not the sets a listing holds:
    # (21,2), m = 20 has 2,441,880 families, within the budget, holding
    # 48,837,600 sets.  Without --up-to-iso it is refused with exit 3 and
    # one line from the counts, before the listing's zero scan
    from shadowlab import extremal

    def no_listing(table):
        raise RuntimeError("listed before the sets were counted")

    monkeypatch.setattr(extremal, "_zeros", no_listing)
    start = time.perf_counter()
    assert main(["enumerate", "21", "2", "20"]) == 3
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 2441880 extremal families of 20 sets in C([21], 2) hold 48837600 sets, "
        "past the listing limit of 10000000\n"
    )


def test_verify_uniqueness_at_7_3(capsys):
    # answered from the closure table one size at a time: 191 classes over
    # the 35 sizes, at most 43 of them at one size (m = 27), and exactly one
    # class at a size iff the uniqueness predicate holds
    from shadowlab.extremal import uniqueness_predicate

    code, report = run(capsys, "verify", "uniqueness", "7", "3")
    assert code == 0 and report["equivalence"]
    rows = report["rows"]
    assert [row["m"] for row in rows] == list(range(1, 36))
    for row in rows:
        predicted = uniqueness_predicate(7, 3, row["m"])
        assert row["unique_predicted"] == predicted, row
        assert row["agree"] and (row["classes"] == 1) == predicted, row
    classes = [row["classes"] for row in rows]
    assert sum(classes) == 191
    assert max(classes) == 43 and classes.index(43) == 27 - 1
    # at (7,4), C(7, 3) = C(7, 4) = 35: a tie goes to the k-side table, of
    # 2^35 entries, over the sweep limit
    assert main(["verify", "uniqueness", "7", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: layer of 35 sets exceeds the sweep limit of 21 sets\n"


def test_verify_uniqueness_refuses_before_listing(capsys, monkeypatch):
    # past the sweep limit the closure table lists every size from one scan;
    # every size is counted first, so (9,2) exits 3 at m = 22 with no zero
    # scan of the listing made (the counts read the table without _zeros)
    from shadowlab import extremal

    def no_listing(table):
        raise RuntimeError("listed before every size was counted")

    monkeypatch.setattr(extremal, "_zeros", no_listing)
    start = time.perf_counter()
    assert main(["verify", "uniqueness", "9", "2"]) == 3
    assert time.perf_counter() - start < 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 3390660 extremal families of 22 sets in C([9], 2) "
        "exceed the enumeration budget of 3000000\n"
    )


def test_verify_sweeps_stop_at_amax(capsys):
    # levels past amax hold no cascade: kmax 17 answers with the checks of
    # kmax 10, where the level-17 split universe would pass the split
    # budget, and a kmax of 10^9 loops over no extra level
    for what, checked in (("lemma-abc", 1545747), ("splits", 1013)):
        for kmax in ("17", "1000000000"):
            code, report = run(capsys, "verify", what, "--amax", "10", "--kmax", kmax)
            assert code == 0 and report["checked"] == checked, (what, kmax)


def test_chain_check_sized_before_walked(capsys, monkeypatch, tmp_path):
    # level i of an extremal family's chain holds kk_bound(m, k, i) sets; a
    # 3,000-set colex family of 20-sets would reach 2,057,432 at level 8,
    # so the chain is refused before any level is built
    from shadowlab import extremal

    seg = tmp_path / "seg.json"
    assert main(["construct", "colex", "24", "20", "3000", "--out", str(seg)]) == 0
    capsys.readouterr()

    def no_walk(masks):
        raise AssertionError("walked the chain")

    monkeypatch.setattr(extremal, "_shadow_masks", no_walk)
    assert main(["check", "--in", str(seg), "--chain"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: shadow chain level 8 would hold 2057432 sets, "
        "over the shadow budget of 2000000\n"
    )


def test_oracle(capsys):
    code, report = run(capsys, "oracle", "min-shadow", "5", "3", "4")
    assert code == 0
    assert report["min_shadow"] == 6 and report["matches_bound"]
    # (7,3) is answered from its closure table over the 21 pairs of [7]
    for m in range(1, 36):
        code, report = run(capsys, "oracle", "min-shadow", "7", "3", str(m))
        assert code == 0 and report["matches_bound"], m


def test_oracle_refuses_k_below_2_before_answering(monkeypatch, capsys):
    # the bound is defined from k = 2; the refusal names that domain, and
    # comes before the oracle builds any table or combination
    from shadowlab import extremal

    def fail(*args):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(extremal, "brute_force_min_shadow", fail)
    for k in ("1", "0", "-1"):
        assert main(["oracle", "min-shadow", "5", k, "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the min-shadow oracle needs k >= 2\n"


def test_construct_forbidden_pairs(capsys):
    code, report = run(
        capsys,
        "construct",
        "forbidden-pairs",
        "120",
        "4",
        "4",
        "--t",
        "29",
        "--r",
        "2",
    )
    assert code == 0
    arith = report["arithmetic"]
    assert arith["base"]["cascade"] == [119, 112, 104, 58]
    assert arith["thinned"]["extremal"] is False

    code, report = run(
        capsys, "construct", "forbidden-pairs", "9", "3", "3", "--materialize"
    )
    assert code == 0
    assert report["materialized_size"] == 65


def test_materialize_refuses_a_ground_set_past_64_before_listing(capsys, monkeypatch):
    # C(120, 4) masks would be listed before the family refused n > 64
    from shadowlab import constructions

    def no_listing(n, k):
        raise AssertionError("listed the layer")

    monkeypatch.setattr(constructions, "_layer_masks", no_listing)
    assert main(["construct", "forbidden-pairs", "120", "4", "4", "--materialize"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need 0 <= k <= n <= 64\n"


def test_materialize_refuses_a_layer_past_the_limit_before_listing(capsys, monkeypatch):
    # C(64, 8) masks would be listed, for no answer in 30 s and past 1.2 GiB;
    # a malformed regular deletion over the limit is still a usage error,
    # and the limit admits a layer of exactly its size
    from shadowlab import constructions

    def no_listing(n, k):
        raise AssertionError("listed the layer")

    with monkeypatch.context() as patch:
        patch.setattr(constructions, "_layer_masks", no_listing)
        assert main(["construct", "forbidden-pairs", "64", "8", "4", "--materialize"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: materializing lists all C(64, 8) = 4426165368 sets, "
            "over the materialize limit of 1000000\n"
        )
        argv = ["construct", "forbidden-pairs", "40", "6", "4", "--t", "5", "--r", "1"]
        assert main([*argv, "--materialize"]) == 2
        assert capsys.readouterr().err == "error: regular deletion needs n = t*k + m\n"
    monkeypatch.setattr(constructions, "MATERIALIZE_LIMIT", 84)  # C(9, 3)
    code, report = run(capsys, "construct", "forbidden-pairs", "9", "3", "3", "--materialize")
    assert code == 0 and report["materialized_size"] == 65
    monkeypatch.setattr(constructions, "MATERIALIZE_LIMIT", 83)
    assert main(["construct", "forbidden-pairs", "9", "3", "3", "--materialize"]) == 3


def test_out_of_domain_requests_refused_at_entry(capsys):
    # enumerate, verify and the oracle past the 64-element ground set
    # exited 0, 2 or 3 depending on the path, and forbidden-pairs with
    # k <= 2 leaked the cascade's "level k must be >= 1"; --iter was ignored
    # next to --upper, also as --iter 1 or --upper 0, argparse's defaults
    pairs = ["construct", "forbidden-pairs", "8"]
    ground = "need 0 <= k <= n <= 64"
    for argv, message in (
        (["enumerate", "65", "2", "1"], ground),
        (["enumerate", "65", "1", "1"], ground),
        (["enumerate", "65", "65", "1"], ground),
        (["enumerate", "300", "300", "1"], ground),
        (["verify", "uniqueness", "65", "65"], ground),
        (["verify", "uniqueness", "65", "2"], ground),
        (["verify", "uniqueness", "300", "300"], ground),
        (["verify", "uniqueness", "200", "100"], ground),
        (["verify", "min-degree", "65", "2"], ground),
        (["oracle", "min-shadow", "65", "65", "1"], ground),
        (["oracle", "min-shadow", "65", "2", "1"], ground),
        (["oracle", "min-shadow", "65", "2", "3"], ground),
        *(
            ([*pairs, k, "3", *more], "the arithmetic report needs k >= 3")
            for k in ("0", "1", "2")
            for more in ([], ["--materialize"])
        ),
        (
            ["shadow", "--in", "f.json", "--upper", "2", "--iter", "2"],
            "argument --iter: not allowed with argument --upper",
        ),
        (
            ["shadow", "--in", "f.json", "--iter", "2", "--upper", "2"],
            "argument --upper: not allowed with argument --iter",
        ),
        (
            ["shadow", "--in", "f.json", "--iter", "1", "--upper", "2"],
            "argument --upper: not allowed with argument --iter",
        ),
        (
            ["shadow", "--in", "f.json", "--upper", "0", "--iter", "2"],
            "argument --iter: not allowed with argument --upper",
        ),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == f"error: {message}\n", argv


def test_construct_block_examples(capsys):
    code, report = run(capsys, "construct", "example32", "5", "3", "--variant", "b")
    assert code == 0
    assert report["extremal"] is False
    assert report["designated_element"] == 5
    code, report = run(capsys, "construct", "example32", "5", "3", "--variant", "c")
    assert code == 0
    assert report["designated_element"] == 6
    code, report = run(capsys, "construct", "example33", "5", "3")
    assert code == 0
    assert report["extremal"] is False


def test_shadow_upper(tmp_path, capsys):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"n": 4, "k": 2, "sets": [[1, 2]]}) + "\n")
    code, report = run(capsys, "shadow", "--in", str(pair), "--upper", "1")
    assert code == 0
    assert report["result"]["sets"] == [[1, 2, 3], [1, 2, 4]]
    # zero upper steps leave the family itself, not its lower shadow
    code, report = run(capsys, "shadow", "--in", str(pair), "--upper", "0")
    assert code == 0
    assert report["result"] == {"k": 2, "n": 4, "sets": [[1, 2]]}


def test_shadow_refuses_an_unbounded_reach(tmp_path, capsys):
    # refused before enumerating: C(64, 32) sets at step 32, C(39, 10) at
    # upper step 10
    whole = tmp_path / "whole.json"
    whole.write_text(json.dumps({"n": 64, "k": 64, "sets": [list(range(1, 65))]}))
    single = tmp_path / "single.json"
    single.write_text(json.dumps({"n": 40, "k": 1, "sets": [[1]]}))
    for argv, reach in (
        (["--in", str(whole), "--iter", "32"], "step 32 may reach 1 * C(64, 32) = "),
        (["--in", str(single), "--upper", "10"], "step 10 may reach 1 * C(39, 10) = "),
    ):
        assert main(["shadow", *argv]) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
        assert reach in captured.err, captured.err


def test_option_values_with_a_leading_minus(capsys):
    # a value that starts with one "-" is the option's value, given apart or
    # joined by "="; the echoed command is the argv as given
    text = "-C(1,0)+C(0,0)+C(0,-1)"
    code, apart = run(capsys, "identity", "check", "--sum", text)
    assert code == 0
    assert apart.pop("command") == ["identity", "check", "--sum", text]
    code, joined = run(capsys, "identity", "check", f"--sum={text}")
    assert code == 0
    assert joined.pop("command") == ["identity", "check", f"--sum={text}"]
    assert apart == joined and joined["sum"] == text and joined["invariantly_zero"]
    # a negative wall entry reaches the reduction's own check either way
    for wall in (["--wall", "-1:0"], ["--wall=-1:0"]):
        assert main(["reduce", *wall, "--b", "2", "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: wall entries must be nonnegative\n"


def test_construct_perturbed(tmp_path, capsys):
    code, report = run(capsys, "construct", "perturbed", "6", "3", "12")
    assert code == 0
    assert report["outcome"] == "in_segment"
    assert report["removed"] == [1, 3, 6] and report["added"] == [1, 2, 6]
    assert "family" not in report and "extremal" not in report
    # an off-segment swap that relabels the segment reports its family,
    # which --out writes
    out = tmp_path / "p.json"
    code, report = run(capsys, "construct", "perturbed", "6", "2", "4", "--out", str(out))
    assert code == 0
    assert report["outcome"] == "isomorphic" and report["extremal"] is True
    assert report["family"] == {"n": 6, "k": 2, "sets": [[1, 2], [1, 3], [2, 3], [2, 4]]}
    assert json.loads(out.read_text(encoding="utf-8")) == report["family"]


def test_verify_subcommands(capsys):
    code, report = run(capsys, "verify", "lemma-abc", "--amax", "6", "--kmax", "3")
    assert code == 0 and report["violations"] == []
    code, report = run(capsys, "verify", "splits", "--amax", "6", "--kmax", "4")
    assert code == 0 and report["extras"] == []
    code, report = run(capsys, "verify", "min-degree", "5", "3")
    assert code == 0
    code, report = run(capsys, "verify", "uniqueness", "5", "3")
    assert code == 0 and report["equivalence"]
    code, report = run(
        capsys, "verify", "conjecture", "--k", "3", "--xmax", "6", "--step", "0.5"
    )
    assert code == 0 and report["min_slack"] >= -1e-9


# runs cli.main on its arguments in a fresh process, then reports on stderr
# the shadowlab modules loaded and whether the process pool was
_LOADED = (
    "import sys\n"
    "from shadowlab.cli import main\n"
    "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "names = [m for m in sys.modules if m == 'shadowlab' or m.startswith('shadowlab.')]\n"
    "print(*sorted(names), file=sys.stderr)\n"
    "print('concurrent.futures.process' in sys.modules, file=sys.stderr)\n"
    "sys.exit(code)\n"
)

# every example of the README's CLI section, in order, with the engines it
# loads besides shadowlab, shadowlab.cli and shadowlab.exact
_README_EXAMPLES = [
    ("decompose 14 4", ()),
    ("bound 11 3", ()),
    ("construct colex 6 3 12 --out seg.json", ("families", "extremal")),
    ("check --in seg.json --mode both --chain", ("families", "extremal")),
    ("shadow --in seg.json --iter 2", ("families",)),
    ("enumerate 6 3 12 --up-to-iso", ("families", "extremal")),
    ("oracle min-shadow 6 3 12", ("families", "extremal")),
    ("construct forbidden-pairs 120 4 4 --t 29 --r 2", ("families", "constructions")),
    # an "in_segment" outcome carries no family, so no extremality verdict
    ("construct perturbed 6 3 12", ("families", "constructions")),
    ("verify lemma-abc --amax 10 --kmax 5", ("inequalities",)),
    ("verify splits --amax 8 --kmax 5", ("inequalities",)),
    ("verify uniqueness 6 3", ("families", "extremal")),
    ("verify min-degree 6 3", ("families", "extremal")),
    ("verify conjecture --k 3 --xmax 12 --step 0.25", ("inequalities",)),
    ("reduce --wall 2,1:3 --b 5,4 --c 4 --k 3", ("identities",)),
    ("identity check --sum 'C(1,0)-C(0,0)-C(0,-1)'", ("identities",)),
]


def _loaded_modules(argv: list[str], cwd) -> tuple[int, list[str], bool]:
    src = os.path.dirname(os.path.dirname(shadowlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv], capture_output=True, text=True, env=env, cwd=cwd
    )
    modules, pool = proc.stderr.splitlines()[-2:]
    return proc.returncode, modules.split(), pool == "True"


def test_import_leaves_out_process_pool(tmp_path):
    code, modules, pool = _loaded_modules([], tmp_path)
    assert code == 0
    assert modules == ["shadowlab", "shadowlab.cli", "shadowlab.exact"]
    assert not pool


def test_import_and_arithmetic_requests_leave_out_dataclasses(tmp_path):
    # Seq is a plain class, and check imports asdict only when it runs
    script = (
        "import sys\n"
        "import shadowlab.cli\n"
        "print('dataclasses' in sys.modules)\n"
        "shadowlab.cli.main(['decompose', '14', '4'])\n"
        "shadowlab.cli.main(['bound', '11', '3'])\n"
        "print('dataclasses' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(shadowlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "False")


def test_each_readme_example_loads_only_its_engines(tmp_path):
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```")[1]
    listed = [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("shadowlab ")
    ]
    assert listed == [shlex.split(example) for example, _ in _README_EXAMPLES]
    for example, engines in _README_EXAMPLES:
        code, modules, pool = _loaded_modules(shlex.split(example), tmp_path)
        assert code == 0, example
        expected = {"shadowlab", "shadowlab.cli", "shadowlab.exact"}
        assert set(modules) == expected | {f"shadowlab.{e}" for e in engines}, example
        assert not pool, example


def test_reduce(capsys):
    code, report = run(
        capsys, "reduce", "--wall", "1:1", "--b", "2", "--c", "", "--k", "1"
    )
    assert code == 0
    assert report["identities_invariant"] == [True, True]
    assert report["wall_out"]["w"] == []
    assert report["b_out"] == [] and report["c_out"] == []


def test_reduce_past_the_128_bit_range(capsys):
    # the termination guard is the wall's value, which is never reported and
    # may pass the signed 128-bit range of reported values: C(160, 60) and
    # C(1200, 200) here.  Both reduce, with both identities verified
    for wall, b, k in (("60:100", "70", "60"), ("200:1000", "250", "200")):
        code, report = run(capsys, "reduce", "--wall", wall, "--b", b, "--k", k)
        assert code == 0
        assert report["identities_invariant"] == [True, True]
        assert report["shared"] == [[int(b), int(k), 1]]
        assert report["b_out"] == [] and report["c_out"] == []


def test_identity_check(capsys):
    code, report = run(capsys, "identity", "check", "--sum", "C(1,0)-C(0,0)-C(0,-1)")
    assert code == 0
    assert report["invariantly_zero"] and report["zero_on_grid"]
    code, report = run(capsys, "identity", "check", "--sum", "C(1,0)-C(0,0)")
    assert code == 1
    assert not report["invariantly_zero"]


def test_identity_check_past_the_128_bit_range(capsys):
    # the grid's translates are only compared with 0, so they are summed
    # exactly: C(134, 71) at the top of the grid passes 2^127 - 1
    text = "C(126,63)-C(125,63)-C(125,62)"
    code, report = run(capsys, "identity", "check", "--sum", text)
    assert code == 0
    assert report["invariantly_zero"] and report["zero_on_grid"]
    assert report["pointwise_value"] == 0
    # a lower index of 128 or more is still refused before it is computed
    assert main(["identity", "check", "--sum", "C(300,150)-C(299,150)-C(299,149)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: C(296, 146) exceeds the signed 128-bit range\n"


def test_identity_check_refuses_a_wide_upper_span(capsys):
    # rewriting row by row costs about span^2 / 2 Pascal steps; a span far
    # past the rewrite budget is refused in seconds instead of hanging
    start = time.perf_counter()
    assert main(["identity", "check", "--sum=C(20000,0)-C(0,0)"]) == 3
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "rows walked" in captured.err
    code, report = run(capsys, "identity", "check", "--sum=C(1000,0)-C(0,0)")
    assert code == 1
    assert not report["invariantly_zero"]


def test_parse_binomial_sum():
    s = parse_binomial_sum("2*C(5,3) + C(4,2) - 3*C(1,0)")
    assert s.coefficient(5, 3) == 2
    assert s.coefficient(4, 2) == 1
    assert s.coefficient(1, 0) == -3
    with pytest.raises(ValueError):
        parse_binomial_sum("garbage")


def test_internal_error_exit_code(monkeypatch, capsys):
    # an exception no documented exit code covers is one line and exit 4,
    # never a traceback or exit 1
    from shadowlab import cli

    def broken(args):
        raise RuntimeError("table\nout of step")

    monkeypatch.setattr(cli, "_cmd_decompose", broken)
    assert main(["decompose", "14", "4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: RuntimeError: table out of step\n"


def test_usage_and_overflow_exit_codes(tmp_path, capsys):
    assert main(["decompose", "-3", "2"]) == 2
    capsys.readouterr()
    # argparse usage errors take the same one-line form, subparsers included
    for argv in (
        ["bound", "not-a-number", "3"],
        ["reduce", "--wall", "-1:0", "--b", "", "--k", "0"],
        ["decompose", "x", "3"],
        ["verify", "lemma-abc", "--threads", "2"],
        [],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
    assert main(["decompose", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: shadowlab decompose")
    # over budget: the count is compared exactly, beyond the 128-bit range
    assert main(["oracle", "min-shadow", "9", "4", "60"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: C(126, 60) = ")
    assert captured.err.endswith("exceed the enumeration budget of 3000000\n")
    assert captured.err.count("\n") == 1
    # refused before the C(20, 10)-set layer is built
    assert main(["enumerate", "20", "10", "5"]) == 3
    assert capsys.readouterr().err == (
        "error: layer of 184756 sets exceeds the sweep limit of 21 sets\n"
    )
    assert main(["check", "--in", "/nonexistent/family.json"]) == 2
    capsys.readouterr()
    assert main(["construct", "perturbed", "6", "3", "19"]) == 2  # precondition
    capsys.readouterr()
    # weakly dominated: passes the entry checks, then reaches a collision
    assert main(["reduce", "--wall", "2:0", "--b", "2,1", "--k", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: boundary collision with a longer tail is not reducible\n"
    )
    # the regular deletion needs both --t and --r; either alone is refused
    for flag in ("--t", "--r"):
        assert main(["construct", "forbidden-pairs", "8", "2", "4", flag, "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --t and --r go together: give both or neither\n"
    # the minimum-degree bound is stated for n > k > 1, uniqueness for
    # n >= k >= 2; an empty sweep domain is refused, never reported as
    # zero rows or zero checks
    for args in (
        ("min-degree", "4", "4"),
        ("min-degree", "3", "1"),
        ("uniqueness", "4", "1"),
        ("uniqueness", "4", "6"),
        ("lemma-abc", "--kmax", "1"),
        ("lemma-abc", "--amax", "1"),
        ("splits", "--kmax", "1"),
        ("splits", "--amax", "1"),
    ):
        assert main(["verify", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    # empty or unbounded grids: a zero, negative or non-finite step, an
    # infinite xmax, xmax below k, and no y samples
    for args in (
        ("--step", "0"),
        ("--step", "-1"),
        ("--xmax", "inf"),
        ("--xmax", "2"),
        ("--y-samples", "0"),
    ):
        assert main(["verify", "conjecture", "--k", "3", *args]) == 2, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert main(["verify", "conjecture", "--k", "3", "--y-samples", "1"]) == 0
    capsys.readouterr()
    # over budget, refused before the grid or the split universe is built: 5e9
    # x values, a huge --y-samples, a step that underflows the span, and split
    # sweeps whose level-1 enumeration would pass the split budget
    for args in (
        ("conjecture", "--k", "3", "--xmax", "8", "--step", "1e-9"),
        ("conjecture", "--k", "3", "--y-samples", str(10**400)),
        ("conjecture", "--k", "3", "--step", "5e-324"),
        ("lemma-abc", "--amax", "40", "--kmax", "5"),
        ("splits", "--amax", "60", "--kmax", "6"),
    ):
        assert main(["verify", *args]) == 3, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "budget" in captured.err, args
    assert main(["verify", "conjecture", "--k", "3", "--xmax", "8", "--step", "1e-9"]) == 3
    assert capsys.readouterr().err == (
        "error: a grid of 5,000,000,001 points times 41 y samples "
        "exceeds the scan budget of 1000000\n"
    )
    # a step that underflows a negative span is an empty grid, not a crash
    assert main(["verify", "conjecture", "--k", "3", "--xmax", "2", "--step", "5e-324"]) == 2
    assert capsys.readouterr().err == "error: the grid is empty\n"
    # the k-fold shadow of a k-family is {{}}, which the family format cannot
    # carry: refused before the output file is created
    seg = tmp_path / "seg.json"
    assert main(["construct", "colex", "6", "3", "12", "--out", str(seg)]) == 0
    capsys.readouterr()
    empty = tmp_path / "empty.json"
    assert main(["shadow", "--in", str(seg), "--iter", "3", "--out", str(empty)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not empty.exists()
    for i, sets in enumerate(([[True, 2]], [["1", "2"], ["1", "3"]], 5)):
        path = tmp_path / f"malformed{i}.json"
        path.write_text(json.dumps({"n": 4, "k": 2, "sets": sets}))
        assert main(["check", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_json_determinism(capsys):
    code1 = main(["enumerate", "5", "3", "4", "--up-to-iso"])
    out1 = capsys.readouterr().out
    code2 = main(["enumerate", "5", "3", "4", "--up-to-iso"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
