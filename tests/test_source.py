"""Properties of the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import shadowlab


def test_no_assert_statements():
    # runtime checks must be explicit raises: `python -O` strips asserts
    found = []
    for path in sorted(Path(shadowlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_no_environment_reads():
    # reports depend on their arguments alone, never on hidden settings
    found = []
    for path in sorted(Path(shadowlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv", "environb"):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
                if names & {"environ", "getenv", "environb", "*"}:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_mask_format_stays_in_families():
    # families.py owns the mask format: element e is bit e - 1, and a set's
    # (k-1)-subsets clear one set bit; other modules call its helpers
    found = []
    for path in sorted(Path(shadowlab.__file__).parent.glob("*.py")):
        if path.name == "families.py":
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if "rest & -rest" in line or "1 << (e - 1)" in line:
                found.append(f"{path.name}:{lineno}")
    assert found == []
