"""Byte-identity of two source trees, parent and change, on a fixed corpus.

    python3 tools/identity_corpus.py --parent ../parent --change .

Each tree is a source checkout holding src/shadowlab and README.md.  Two
kinds of entry are compared:

- the split-sweep grid, computed in one fresh process per tree:
  ``lemma_sweep`` for k 2..6 x amax 2..11, ``general_level_sweep`` on the
  220 scales k 1..5 x amax 0..10 x shift 0..3, and ``splits_comparison``
  at (8,5), (6,4), (3,3) and (10,6); an entry's digest is the sha256 of
  the result's repr;
- the CLI examples of the tree's README (the lines of its first code block
  after "## CLI" that start with ``shadowlab``), run in order in a fresh
  temporary directory per tree, one ``python -m shadowlab.cli`` process
  each; an entry's digest is the sha256 of its exit code, stdout and
  stderr, and every file the examples leave in the directory is one more
  entry.

It prints one sha256 per group and tree and, where a group differs, the
first entry that differs; it exits 1 on any difference and 0 otherwise.
The runs set PYTHONDONTWRITEBYTECODE=1.  Standard library only.
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


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def readme_examples(readme: str) -> list[str]:
    """The commands of the first code block after the "## CLI" heading that
    start with ``shadowlab``, each without its trailing ``# comment``."""
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [
        shlex.join(shlex.split(line, comments=True))
        for line in block.splitlines()
        if line.startswith("shadowlab ")
    ]


def grid_entries(tree: Path) -> list[tuple[str, str, str]]:
    """(group, entry, digest) of the split-sweep grid, from one fresh process."""
    with tempfile.TemporaryDirectory() as work:
        out = subprocess.run(
            [sys.executable, "-c", GRID],
            cwd=work,
            env=_env(tree),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    return [tuple(line.split("\t")) for line in out.splitlines()]


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    parent, change = (grid_entries(t) + cli_entries(t) for t in (args.parent, args.change))
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
