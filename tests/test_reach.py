"""Every public function and class of src/chainfold is reached from code a
command, suite, script or benchmark workload runs, or is allowlisted with
its reason.  Oracles that only the tests read live in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chainfold"

# name -> why it stays in src/ though nothing outside the tests reads it
ALLOWED = {
    "cover.load_family": "the family file's reader; wiring it into a command "
    "or deleting it with dump_family is an open ROADMAP decision",
    "analysis.boost": "the documented (S, T) -> (sqrt S, 2 sqrt T) map; emit_curve "
    "inlines it, as a call per row costs about a quarter of emit_curve(2048)",
}


def _public_definitions():
    """module.name of each module-level public function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def _referenced_names():
    """Every name and attribute read in src/, scripts/ and bench/*.py."""
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py")]
    paths += (ROOT / "bench").glob("*.py")
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_definition_is_reached_or_allowlisted():
    used = _referenced_names()
    unreached = sorted(key for key, name in _public_definitions() if name not in used)
    assert unreached == sorted(ALLOWED)
