"""Property-based fuzzing of the interchange format and the CLI error contract.

Every input must end in a report or in one clean ``error:`` line with a
documented exit code: never a traceback, never exit 4 (an internal fault),
and never exit 1 without a report, since 1 means a false verdict.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shadowlab.cli import main
from shadowlab.families import KFamily, from_dict

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

SMALL = st.integers(-3, 8)
JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "k", "sets", "x"]), children, max_size=4),
    max_leaves=12,
)
FAMILY_LIKE = st.fixed_dictionaries(
    {
        "n": st.integers(-1, 70) | JSON_LIKE,
        "k": st.integers(-1, 8) | JSON_LIKE,
        "sets": st.lists(st.lists(st.integers(-1, 9) | JSON_LIKE, max_size=4), max_size=4)
        | JSON_LIKE,
    }
)


@FUZZ
@given(JSON_LIKE | FAMILY_LIKE)
def test_from_dict_returns_a_family_or_raises_value_error(data):
    try:
        family = from_dict(data)
    except ValueError:
        return
    assert isinstance(family, KFamily)


def _flag(name: str, values=SMALL):
    """An optional flag: absent, or present with one drawn value."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def _switch(name: str):
    return st.sampled_from([[], [name]])


def _positional(count: int):
    return st.lists(SMALL.map(str), min_size=count, max_size=count)


def _command(*parts):
    """argv from fixed words and strategies of token lists, in order."""
    pieces = [st.just([p]) if isinstance(p, str) else p for p in parts]
    return st.tuples(*pieces).map(lambda lists: [t for part in lists for t in part])


def _terms():
    return st.lists(SMALL, max_size=3).map(lambda xs: ",".join(map(str, xs)))


ARGV = st.one_of(
    _command("decompose", _positional(2)),
    _command("bound", _positional(2), _flag("--iter")),
    _command(
        "enumerate",
        _positional(3),
        _switch("--up-to-iso"),
        st.sampled_from([[], ["--method", "exhaustive"], ["--method", "recursive"]]),
    ),
    _command("oracle", "min-shadow", _positional(3)),
    _command("construct", "colex", _positional(3)),
    _command(
        "construct",
        "forbidden-pairs",
        _positional(3),
        _flag("--t"),
        _flag("--r"),
        _switch("--materialize"),
    ),
    _command("construct", "example32", _positional(2), _flag("--variant", st.sampled_from("bc"))),
    _command("construct", "example33", _positional(2)),
    _command("construct", "perturbed", _positional(3)),
    _command("verify", "lemma-abc", _flag("--amax"), _flag("--kmax")),
    _command("verify", "splits", _flag("--amax"), _flag("--kmax")),
    _command("verify", "min-degree", _positional(2)),
    _command("verify", "uniqueness", _positional(2)),
    _command(
        "verify",
        "conjecture",
        SMALL.map(lambda k: ["--k", str(k)]),
        _flag("--xmax"),
        _flag("--step"),
        _flag("--y-samples"),
    ),
    # "--wall=-1:0": a list with a leading minus sign is not a number, so
    # argparse would read it as an option unless it is joined by "="
    _command(
        "reduce",
        st.tuples(_terms(), SMALL).map(lambda wl: [f"--wall={wl[0]}:{wl[1]}"]),
        _terms().map(lambda b: [f"--b={b}"]),
        _terms().map(lambda c: [f"--c={c}"]),
        SMALL.map(lambda k: ["--k", str(k)]),
    ),
    # "=" again: a drawn sum may start with "-"
    _command(
        "identity",
        "check",
        (st.text(alphabet="C(),+-*0123456789 ", max_size=24) | st.text(max_size=8)).map(
            lambda text: [f"--sum={text}"]
        ),
    ),
)


# the commands that read a family file, given as "FILE" and written first
FILE_ARGV = st.one_of(
    _command(
        "check",
        "--in",
        "FILE",
        st.sampled_from([[]] + [["--mode", m] for m in ("direct", "characterize", "both")]),
        _flag("--witness"),
        _switch("--chain"),
        _switch("--compact"),
    ),
    _command("shadow", "--in", "FILE", _flag("--iter"), _flag("--upper")),
)


def _assert_contract(argv, code, captured):
    assert code in (0, 1, 2, 3), (argv, code, captured.err)
    if code in (2, 3):
        assert captured.out == "", argv
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1, (
            argv,
            captured.err,
        )
    else:
        # a report, exactly one JSON line, for a true or a false verdict alike
        assert captured.err == "", argv
        assert captured.out.count("\n") == 1, argv
        assert json.loads(captured.out)["command"] == argv


@FUZZ
@given(ARGV)
def test_cli_never_faults(capsys, argv):
    code = main(argv)
    _assert_contract(argv, code, capsys.readouterr())


@FUZZ
@given(FAMILY_LIKE, FILE_ARGV)
def test_cli_never_faults_on_family_files(tmp_path, capsys, data, argv):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(data))
    argv = [str(path) if token == "FILE" else token for token in argv]
    code = main(argv)
    _assert_contract(argv, code, capsys.readouterr())
