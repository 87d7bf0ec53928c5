"""Package layout: every public top-level function and class in src/spartan
is used by the program (src/, scripts/ or perfbench/), not by tests alone.

A function only tests call is a test oracle; it belongs in tests/reference.py,
where it cannot drift into being a second implementation of the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def public_definitions():
    """(module, name) of every public top-level function and class in the package."""
    for path in sorted((ROOT / "src" / "spartan").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node.name


def names_referenced(paths):
    """Every identifier the code in paths reads, as a bare name or an attribute."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_no_public_name_is_used_only_by_tests():
    program = [path for top in ("src", "scripts", "perfbench")
               for path in (ROOT / top).rglob("*.py") if not path.name.startswith("test_")]
    in_program = names_referenced(program)
    in_tests = names_referenced((ROOT / "tests").rglob("*.py"))
    test_only = [f"{module}.{name}" for module, name in public_definitions()
                 if name in in_tests and name not in in_program]
    assert not test_only, f"used only by tests; move to tests/reference.py: {test_only}"
