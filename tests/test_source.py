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


def _spells_mask_format(node: ast.AST) -> bool:
    """A shift by ``<expr> - 1`` (element e is bit e - 1) or a lowest set
    bit ``x & -x``."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, (ast.LShift, ast.RShift)):
        right = node.right
        return (
            isinstance(right, ast.BinOp)
            and isinstance(right.op, ast.Sub)
            and isinstance(right.right, ast.Constant)
            and right.right.value == 1
        )
    return (
        isinstance(node.op, ast.BitAnd)
        and isinstance(node.right, ast.UnaryOp)
        and isinstance(node.right.op, ast.USub)
        and ast.dump(node.right.operand) == ast.dump(node.left)
    )


def test_mask_format_stays_in_families():
    # families.py owns the mask format: element e is bit e - 1, and a set's
    # (k-1)-subsets clear one set bit; other modules call its helpers
    found = []
    for path in sorted(Path(shadowlab.__file__).parent.glob("*.py")):
        if path.name == "families.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _spells_mask_format(node)
        ]
    assert found == []


def test_block_format_stays_in_the_block_walk():
    # how a 2^N table is cut into blocks of 2^16 patterns is decided by the
    # two block helpers of extremal.py alone: every table is built and read
    # through them, and brute_force_min_shadow reads the block size only as
    # its one-block threshold
    readers = set()
    spelled = []
    for path in sorted(Path(shadowlab.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        spelled += [path.name] * source.count("256 * block")
        tree = ast.parse(source, filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Name)
                    and node.id == "_BLOCK_POSITIONS"
                    and isinstance(node.ctx, ast.Load)
                ):
                    readers.add((path.name, getattr(top, "name", None)))
    assert readers == {
        ("extremal.py", "_split"),
        ("extremal.py", "_blocks"),
        ("extremal.py", "brute_force_min_shadow"),
    }
    assert spelled == ["extremal.py"]


def test_cli_imports_no_private_names():
    # the CLI calls each engine through its public names; a helper the CLI
    # alone needs belongs in the engine's public surface or in the CLI
    path = Path(shadowlab.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"{alias.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "shadowlab")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree: ast.Module) -> list[ast.AST]:
    """Private module-level functions and classes, and private methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for top in tree.body:
        if isinstance(top, defs) and _is_private(top.name):
            found.append(top)
        if isinstance(top, ast.ClassDef):
            found += [node for node in top.body if isinstance(node, defs) and _is_private(node.name)]
    return found


def test_every_private_definition_is_referenced():
    # a private helper whose last caller is gone is dead code: each one is
    # named, as a name or an attribute, outside its own definition
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(Path(shadowlab.__file__).parent.glob("*.py"))
    }
    definitions = [(name, node) for name, tree in trees.items() for node in _private_definitions(tree)]
    assert len(definitions) > 80
    unreferenced = []
    for file_name, definition in definitions:
        inside = {id(node) for node in ast.walk(definition)}
        if not any(
            id(node) not in inside
            and (node.id if isinstance(node, ast.Name) else node.attr) == definition.name
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        ):
            unreferenced.append(f"{file_name}:{definition.name}")
    assert unreferenced == []
