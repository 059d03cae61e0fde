"""The package's modules reach each other through public names only."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "flexshuffle"


def private_uses(tree: ast.Module) -> list[str]:
    """Underscore names a module imports from, or reads off, a sibling."""
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "flexshuffle"
        ):
            for alias in node.names:
                if node.module is None or node.module == "flexshuffle":
                    siblings.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and node.attr.startswith("_")
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_from_sibling_modules(path):
    assert private_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source",
    ["from .shuffle import _plan", "from flexshuffle.shuffle import _plan",
     "from . import shuffle\nshuffle._plan()"],
)
def test_private_uses_are_found(source):
    assert private_uses(ast.parse(source)) != []
