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


def unused_private_defs(tree: ast.Module) -> list[str]:
    """Module-level underscore functions and classes the module never names."""
    defined = [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    ]
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in defined if name not in named]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_private_helpers_are_used_in_their_module(path):
    assert unused_private_defs(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source, found",
    [("def _dead(): pass", ["_dead"]),
     ("class _Dead: pass\ndef _used(): return 1\nx = _used()", ["_Dead"]),
     ("def _outer():\n    def _inner(): pass\nf = _outer", []),
     ("def __getattr__(name): pass", [])],
)
def test_unused_private_defs_are_found(source, found):
    assert unused_private_defs(ast.parse(source)) == found


# Public functions named nowhere outside their own module, kept on purpose.
REACHED_ONLY_BY_TESTS = {
    # the payload codec: the engine's wire format, round-tripped in tests
    "encode_payload", "decode_payload", "payload_width",
    # the parser behind load_instance, for instance text already in memory
    "instance_from_text",
    # the interval behind every ProportionEstimate
    "wilson_interval",
    # the node groups of the fixed-assignment baseline
    "fixed_assignment_nodes",
    # seeded_outputs.golden pins its output
    "mc_fixed_no_shuffle",
}


def public_defs(tree: ast.Module) -> list[str]:
    """Module-level functions without a leading underscore."""
    return [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def names_in(tree: ast.Module) -> set[str]:
    """Every name a module reads, imports or reads off an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def unreached_public_defs(tree: ast.Module, others) -> list[str]:
    """Public functions of ``tree`` that none of the ``others`` names."""
    named = set().union(*map(names_in, others))
    return [name for name in public_defs(tree) if name not in named]


def reaching_sources() -> dict[Path, ast.Module]:
    """The code whose use keeps a public function: the package modules,
    the demos, the benchmark and the acceptance tests.  ``__init__.py``
    only re-exports, so it does not count."""
    paths = [
        *(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"),
        *sorted((ROOT / "demos").glob("*.py")),
        *sorted((ROOT / "benchmarks").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in ("__init__.py", "cli.py")],
    ids=lambda p: p.name,
)
def test_public_functions_are_reached(path):
    sources = reaching_sources()
    others = [tree for other, tree in sources.items() if other != path]
    unreached = unreached_public_defs(sources[path], others)
    assert [name for name in unreached if name not in REACHED_ONLY_BY_TESTS] == []


@pytest.mark.parametrize(
    "source, others, found",
    [("def f(): pass\ndef g(): pass", ["from m import g"], ["f"]),
     ("def f(): pass", ["import m\nm.f()"], []),
     ("def f(): pass\ndef _g(): pass", ["x = 1"], ["f"]),
     ("def f(): pass\nf()", [], ["f"])],
)
def test_unreached_public_defs_are_found(source, others, found):
    trees = [ast.parse(other) for other in others]
    assert unreached_public_defs(ast.parse(source), trees) == found
