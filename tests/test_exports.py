"""Every name relqlab exports is used outside the tests: the library itself
(its __init__ aside), a demo or the benchmark refers to it.  Every name that
tests/reference.py defines is imported by a test, and it imports only public
relqlab names.  No library module reads another module's underscore names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "reference.py"


def _exported():
    tree = ast.parse((ROOT / "src" / "relqlab" / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _referenced():
    files = [p for p in (ROOT / "src" / "relqlab").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_export_is_used_outside_the_tests():
    assert sorted(_exported() - _referenced()) == []


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_every_reference_is_imported_by_a_test():
    # a reference goes with the last test that used it; its private helpers
    # live while reference.py itself reads them
    tree = ast.parse(REFERENCE.read_text(encoding="utf-8"))
    imported = {alias.name for path in (ROOT / "tests").glob("test_*.py")
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.module == "reference"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    dead = {name for name in _top_level_names(tree)
            if name not in imported and not (name.startswith("_") and name in read)}
    assert sorted(dead) == []


def test_reference_imports_only_public_library_names():
    # an oracle that shared the engines' private code (_ratio_step,
    # _ratio_coefficients, ...) would not check them independently
    names = []
    for node in ast.walk(ast.parse(REFERENCE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("relqlab"):
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if alias.name.startswith("relqlab")]
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    assert [name for name in names if any(map(_private, name.split(".")))] == []


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _cross_module_private_reads(path):
    """(line, name) of each underscore name that the module at path imports from a
    sibling module or reads as an attribute of one.  Whole private modules
    (from . import _csvtext, from ._integers import is_integer) are allowed."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level and node.module is None
                for alias in node.names}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module is not None:
            reads += [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names
                      if _private(alias.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in siblings and _private(node.attr)):
            reads.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return reads


def test_no_module_reads_another_modules_private_names():
    found = {path.name: reads for path in sorted((ROOT / "src" / "relqlab").glob("*.py"))
             if (reads := _cross_module_private_reads(path))}
    assert found == {}
