"""Byte-identity of two source trees, parent and change, on a fixed corpus.

    python3 tools/identity_corpus.py --parent ../parent --change .

Each tree is a source checkout holding src/shadowlab and README.md.  Two
kinds of entry are compared:

- the split-sweep grid, computed in one fresh process per tree:
  ``lemma_sweep`` for k 2..6 x amax 2..11, ``general_level_sweep`` on the
  220 scales k 1..5 x amax 0..10 x shift 0..3, and ``splits_comparison``
  at (8,5), (6,4), (3,3) and (10,6); an entry's digest is the sha256 of
  the result's repr;
- the table engines, computed in one fresh process per tree:
  ``brute_force_min_shadow`` at every size of every layer with n <= 7 and
  at the edge sizes of (18,2), (21,2) and (21,20); ``enumerate_extremal``,
  plain and up to isomorphism, at every size with n <= 7 and at six sizes
  of (n,2) for 8 <= n <= 12; ``extremal_class_counts``,
  ``characterization_sweep`` and ``min_degree_sweep`` on every layer with
  2 <= k <= n <= 7; and each engine on layers past the sweep limit, past
  the 64-element ground set and out of its domain.  An entry's digest is
  the sha256 of the result's repr, or of the exception's type and message;
- the ``--help`` of every node of the tree's CLI parser, the top-level
  parser and each subcommand below it, found by walking ``build_parser()``
  and run through ``shadowlab.cli.main`` in one fresh process per tree; an
  entry's digest is the sha256 of its exit code, stdout and stderr;
- the CLI examples of the tree's README (the lines of its first code block
  after "## CLI" that start with ``shadowlab``), run in order in a fresh
  temporary directory per tree, one ``python -m shadowlab.cli`` process
  each; an entry's digest is the sha256 of its exit code, stdout and
  stderr, and every file the examples leave in the directory is one more
  entry.

Tree paths may be relative to the working directory.  The whole corpus
takes about 37 s for two trees, 13 s per tree of it in the table engines
(2 cores, Python 3.11.7).  It prints one sha256
per group and tree and, where a group differs, the first entry that
differs; it exits 1 on any difference and 0 otherwise.  A process of the
grid, engines or help groups that fails ends the run with one ``error:`` line on
stderr naming the tree, the group and its exit code, and exit 2.  The runs
set PYTHONDONTWRITEBYTECODE=1.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

GRID = """
import hashlib
from shadowlab.inequalities import general_level_sweep, lemma_sweep, splits_comparison

def emit(group, entry, result):
    print(group, entry, hashlib.sha256(repr(result).encode()).hexdigest(), sep="\\t")

for k in range(2, 7):
    for amax in range(2, 12):
        emit("lemma_sweep", f"lemma_sweep({k}, {amax})", lemma_sweep(k, amax))
for k in range(1, 6):
    for amax in range(0, 11):
        for shift in range(4):
            result = general_level_sweep(k, amax, kmax_shift=shift)
            emit("general_level_sweep", f"general_level_sweep({k}, {amax}, {shift})", result)
for amax, kmax in ((8, 5), (6, 4), (3, 3), (10, 6)):
    emit("splits_comparison", f"splits_comparison({amax}, {kmax})", splits_comparison(amax, kmax))
"""


ENGINES = """
import hashlib
from math import comb
from shadowlab.extremal import (
    brute_force_min_shadow,
    characterization_sweep,
    enumerate_extremal,
    extremal_class_counts,
    min_degree_sweep,
)

def emit(call, *args, **options):
    try:
        outcome = repr(call(*args, **options))
    except Exception as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    named = [*map(str, args), *(f"{key}={value}" for key, value in options.items())]
    entry = f"{call.__name__}({', '.join(named)})"
    print("engines", entry, hashlib.sha256(outcome.encode()).hexdigest(), sep="\t")

layers = [(n, k) for n in range(1, 8) for k in range(1, n + 1)]
for n, k in layers:
    for m in range(1, comb(n, k) + 1):
        emit(brute_force_min_shadow, n, k, m)
for n, k in ((18, 2), (21, 2), (21, 20)):
    for m in (1, 2, 3, comb(n, k) - 2, comb(n, k) - 1, comb(n, k)):
        emit(brute_force_min_shadow, n, k, m)
for n, k in layers:
    for m in range(1, comb(n, k) + 1):
        emit(enumerate_extremal, n, k, m)
        emit(enumerate_extremal, n, k, m, up_to_iso=True)
for n in range(8, 13):
    for m in (1, 2, 3, 6, comb(n, 2) - 1, comb(n, 2)):
        emit(enumerate_extremal, n, 2, m)
        emit(enumerate_extremal, n, 2, m, up_to_iso=True)
for n, k in layers:
    if k >= 2:
        emit(extremal_class_counts, n, k)
        emit(characterization_sweep, n, k)
        emit(min_degree_sweep, n, k)
# past the sweep limit, past the 64-element ground set and the byte fit,
# and out of each engine's domain
for n, k in ((8, 3), (7, 4), (22, 2), (9, 4), (64, 63), (65, 2), (65, 65), (300, 300)):
    for m in (1, 3, 40):
        emit(brute_force_min_shadow, n, k, m)
    emit(enumerate_extremal, n, k, 1)
    emit(enumerate_extremal, n, k, 1, up_to_iso=True)
    emit(extremal_class_counts, n, k)
    emit(characterization_sweep, n, k)
    emit(min_degree_sweep, n, k)
for n, k, m in ((5, 3, 0), (5, 3, 11), (0, 0, 1), (3, 5, 1), (5, 0, 1), (-1, 2, 1)):
    emit(brute_force_min_shadow, n, k, m)
    emit(enumerate_extremal, n, k, m)
for n, k in ((5, 1), (1, 1), (3, 3), (0, 0), (2, 5), (-1, 2)):
    emit(extremal_class_counts, n, k)
    emit(characterization_sweep, n, k)
    emit(min_degree_sweep, n, k)
"""


HELP = """
import argparse, contextlib, hashlib, io
from shadowlab.cli import build_parser, main

def nodes(parser, path):
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from nodes(child, [*path, name])

for path in nodes(build_parser(), []):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*path, "--help"])
    outcome = repr((code, out.getvalue(), err.getvalue())).encode()
    entry = " ".join(["shadowlab", *path, "--help"])
    print("cli_help", entry, hashlib.sha256(outcome).hexdigest(), sep="\\t")
"""


class ChildError(Exception):
    """A grid or help process that exited nonzero."""


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _env(tree: Path) -> dict:
    # the children run in a temporary directory, so a relative path would
    # not lead them to the tree
    src = tree.resolve() / "src"
    return {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}


def readme_examples(readme: str) -> list[str]:
    """The commands of the first code block after the "## CLI" heading that
    start with ``shadowlab``, each without its trailing ``# comment``."""
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [
        shlex.join(shlex.split(line, comments=True))
        for line in block.splitlines()
        if line.startswith("shadowlab ")
    ]


def _script_entries(tree: Path, group: str, script: str) -> list[tuple[str, str, str]]:
    """(group, entry, digest) lines that script prints, from one fresh
    process in a temporary directory; ChildError if it exits nonzero."""
    with tempfile.TemporaryDirectory() as work:
        run = subprocess.run(
            [sys.executable, "-c", script],
            cwd=work,
            env=_env(tree),
            capture_output=True,
            text=True,
        )
    if run.returncode:
        last = (run.stderr.strip().splitlines() or ["no stderr"])[-1]
        raise ChildError(f"{tree}: the {group} process exited {run.returncode}: {last}")
    return [tuple(line.split("\t")) for line in run.stdout.splitlines()]


def grid_entries(tree: Path) -> list[tuple[str, str, str]]:
    """(group, entry, digest) of the split-sweep grid, from one fresh process."""
    return _script_entries(tree, "split-sweep grid", GRID)


def engine_entries(tree: Path) -> list[tuple[str, str, str]]:
    """(group, entry, digest) of the table engines, from one fresh process."""
    return _script_entries(tree, "engines", ENGINES)


def help_entries(tree: Path) -> list[tuple[str, str, str]]:
    """(group, entry, digest) of every CLI parser node's --help, from one
    fresh process."""
    return _script_entries(tree, "cli_help", HELP)


def cli_entries(tree: Path) -> list[tuple[str, str, str]]:
    """(group, entry, digest) of the README's CLI examples, then of the
    files they leave, run in one temporary directory."""
    entries = []
    with tempfile.TemporaryDirectory() as work:
        for command in readme_examples((tree / "README.md").read_text()):
            run = subprocess.run(
                [sys.executable, "-m", "shadowlab.cli", *shlex.split(command)[1:]],
                cwd=work,
                env=_env(tree),
                capture_output=True,
            )
            outcome = repr((run.returncode, run.stdout, run.stderr)).encode()
            entries.append(("readme_cli", command, _digest(outcome)))
        for path in sorted(Path(work).rglob("*")):
            if path.is_file():
                name = path.relative_to(work).as_posix()
                entries.append(("readme_cli", f"file {name}", _digest(path.read_bytes())))
    return entries


def compare(parent: list[tuple], change: list[tuple]) -> list[dict]:
    """Per group, in first-seen order: the entry count and the sha256 of
    each side, and the first entry whose name or digest differs (None when
    the sides agree)."""
    groups = list(dict.fromkeys(entry[0] for entry in parent + change))
    out = []
    for group in groups:
        sides = [[entry[1:] for entry in side if entry[0] == group] for side in (parent, change)]
        digests = [_digest("".join(f"{n}\t{d}\n" for n, d in side).encode()) for side in sides]
        pairs = zip_longest(*sides, fillvalue=(None, None))
        first = next((p[0] or c[0] for p, c in pairs if p != c), None)
        out.append({"group": group, "entries": len(sides[1]), "sha256": digests, "first": first})
    return out


GROUPS = (grid_entries, engine_entries, help_entries, cli_entries)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        parent, change = (
            [entry for group in GROUPS for entry in group(tree)]
            for tree in (args.parent, args.change)
        )
    except ChildError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    differs = False
    for row in compare(parent, change):
        print(f"{row['group']}: {row['entries']} entries")
        print(f"  parent {row['sha256'][0]}\n  change {row['sha256'][1]}")
        if row["first"] is not None:
            differs = True
            print(f"  first difference: {row['first']}")
    print("differs" if differs else "identical")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
