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


def _named(path: Path) -> set[str]:
    """Every name ``path`` uses: as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _package_named() -> set[str]:
    return set().union(*(_named(path) for path in PACKAGE.glob("*.py")
                         if path.name != "__init__.py"))


def test_every_export_is_reached_outside_the_tests():
    # an export counts as reached if another module of the package names it
    # or the benchmark imports it
    exported = {alias.name
                for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    referenced = _capsid_imports(ast.parse(CHILD.read_text())) | _package_named()
    assert exported
    assert sorted(exported - referenced) == []


def test_every_definition_is_reached_outside_the_tests():
    # every function, method and class of the package (dunders aside) must
    # be named by a module of the package or by the benchmark.  This matches
    # by name only, so a definition whose name something else also uses
    # (``order``, ``counts``, ``node``) passes unreached.
    defined = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    referenced = _named(CHILD) | _package_named()
    assert defined
    assert sorted(defined - referenced) == []
