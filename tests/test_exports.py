"""Every name relqlab exports is used outside the tests: the library itself
(its __init__ aside), a demo or the benchmark refers to it, or it is listed in
KEPT_FOR_TESTS with the reason it stays.  No library module reads another
module's underscore names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEPT_FOR_TESTS = {
    "collapse_step": "reference recursion the ratio-state engines are checked against",
    "lambda_two_state": "the linear model's mixing factors in closed form, a reference",
    "lambda_general": "mixing matrix from its defining form, which validates the linear model",
    "short_time_plane_wave_series": "small-momentum moment series that cross-checks the "
                                    "plane-wave quadrature",
    "SampledField": "argument type of path_action's a_field and v_field",
}


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
    exported, referenced = _exported(), _referenced()
    assert sorted(exported - referenced - KEPT_FOR_TESTS.keys()) == []
    # an allowlist entry that is no longer exported, or has found a use, goes too
    assert sorted(KEPT_FOR_TESTS.keys() - (exported - referenced)) == []


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
