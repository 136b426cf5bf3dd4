import ast
from pathlib import Path

import capsid

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"
PACKAGE = ROOT / "src" / "capsid"


def _capsid_imports(tree) -> set[str]:
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "capsid"
            for alias in node.names}


def test_benchmark_imports_resolve():
    # the benchmark's traced mode imports these names lazily, so a deleted
    # export would only fail there
    names = _capsid_imports(ast.parse(CHILD.read_text()))
    assert names
    missing = sorted(name for name in names if not hasattr(capsid, name))
    assert missing == []


def test_every_export_is_reached_outside_the_tests():
    # an export counts as reached if another module of the package names it
    # (as a name, an attribute or an import) or the benchmark imports it
    exported = {alias.name
                for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    referenced = _capsid_imports(ast.parse(CHILD.read_text()))
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert exported
    assert sorted(exported - referenced) == []
