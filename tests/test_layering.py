"""The package's modules reach each other through public names only, and
the command line and the demos reach the solvers through ``solve``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "flexshuffle"
SOLVERS = {
    "min_raw_broadcasts", "greedy_raw_broadcasts", "min_intermediate_broadcasts",
    "best_coded_plan",
}


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


def solver_calls(tree: ast.Module) -> list[str]:
    """Solvers called by name, bare or as an attribute, instead of ``solve``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in SOLVERS:
                found.append(name)
    return found


@pytest.mark.parametrize(
    "path", [PACKAGE / "cli.py", *sorted((ROOT / "demos").glob("*.py"))],
    ids=lambda p: p.name,
)
def test_solves_go_through_one_pipeline(path):
    assert solver_calls(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source, found",
    [("shuffle.min_raw_broadcasts(inst, budget=8)", ["min_raw_broadcasts"]),
     ("best_coded_plan(inst).count", ["best_coded_plan"]),
     ("coding.solve(inst)", [])],
)
def test_solver_calls_are_found(source, found):
    assert solver_calls(ast.parse(source)) == found
