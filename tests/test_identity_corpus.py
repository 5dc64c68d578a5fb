"""tools/identity_corpus.py: the README's examples and the comparison of fixed entries."""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("identity_corpus", _ROOT / "tools" / "identity_corpus.py")
identity_corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity_corpus)


def test_readme_examples_and_first_difference():
    examples = identity_corpus.readme_examples((_ROOT / "README.md").read_text())
    assert examples[0] == "shadowlab decompose 14 4"  # its trailing comment dropped
    assert "shadowlab identity check --sum 'C(1,0)-C(0,0)-C(0,-1)'" in examples
    assert len(examples) == 16 and all(line.startswith("shadowlab ") for line in examples)
    compile(identity_corpus.GRID, "grid", "exec")
    compile(identity_corpus.ENGINES, "engines", "exec")

    parent = [("sweep", "a", "1"), ("sweep", "b", "2"), ("cli", "x", "3"), ("cli", "y", "4")]
    same = identity_corpus.compare(parent, list(parent))
    assert [(row["group"], row["entries"], row["first"]) for row in same] == [
        ("sweep", 2, None),
        ("cli", 2, None),
    ]
    assert all(row["sha256"][0] == row["sha256"][1] for row in same)
    changed = parent[:1] + [("sweep", "b", "5")] + parent[2:3]  # b differs, y is missing
    rows = identity_corpus.compare(parent, changed)
    assert [(row["entries"], row["first"]) for row in rows] == [(2, "b"), (1, "y")]
    assert all(row["sha256"][0] != row["sha256"][1] for row in rows)


def test_relative_tree_paths_and_a_failing_child(tmp_path, monkeypatch, capsys):
    # the children run in a temporary directory, so a tree given relative to
    # the working directory must still reach them; a child that fails is one
    # error line naming the tree, the group and the exit code
    broken = tmp_path / "broken" / "src" / "shadowlab"
    broken.mkdir(parents=True)
    (broken / "__init__.py").write_text('raise RuntimeError("broken tree")\n')
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(identity_corpus, "GROUPS", (identity_corpus.help_entries,))
    tree = os.path.relpath(_ROOT, tmp_path)
    assert identity_corpus.main(["--parent", tree, "--change", tree]) == 0
    out = capsys.readouterr().out
    assert out.startswith("cli_help: 23 entries\n") and out.endswith("\nidentical\n")
    assert identity_corpus.main(["--parent", tree, "--change", "broken"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: broken: the cli_help process exited 1: RuntimeError: broken tree\n"
    )
