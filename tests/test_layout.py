"""Package layout: every public top-level function and class in src/spartan
is used by the program (src/, scripts/ or perfbench/), not by tests alone,
and only `backbone`, which holds the plugin table, names a plugin kind in a
comparison.

A function only tests call is a test oracle; it belongs in tests/reference.py,
where it cannot drift into being a second implementation of the package.
"""

import ast
from pathlib import Path

from spartan.backbone import PLUGINS

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


def kind_comparisons(path):
    """line:column of every comparison in path with a PLUGINS key string
    literal as an operand, alone or in a literal tuple, list or set."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Compare):
            continue
        for operand in (node.left, *node.comparators):
            literals = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) \
                else (operand,)
            if any(isinstance(e, ast.Constant) and e.value in PLUGINS for e in literals):
                yield f"{path.name}:{node.lineno}:{node.col_offset}"
                break


def test_only_the_plugin_table_module_compares_with_a_kind_name():
    # a plugin kind is a row of backbone.PLUGINS plus a params type; a test
    # for a kind's name anywhere else is a branch that the next kind must find
    found = [where for path in sorted((ROOT / "src" / "spartan").glob("*.py"))
             if path.name != "backbone.py" for where in kind_comparisons(path)]
    assert not found, f"compares with a plugin kind's name outside backbone: {found}"
