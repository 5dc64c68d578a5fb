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
