import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # or the benchmark imports it; the package resolves its exports lazily
    # from one name -> submodule table
    exported = set(capsid._EXPORTS)
    referenced = _capsid_imports(ast.parse(CHILD.read_text())) | _package_named()
    assert exported
    assert sorted(exported - referenced) == []


def _attributes(path: Path, ctx: type = ast.expr_context) -> set[str]:
    """Every attribute name ``path`` uses as ``.name``; with ``ctx=ast.Load``
    only those it reads."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx)}


def _definitions() -> list[tuple[str, str, str]]:
    """(qualified name, name, kind) of every function, class, method and
    NamedTuple field of the package, dunders aside.  A method or field is a
    direct member of a class body; every other def or class is a "name"."""
    found, members = [], set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):  # a class before its body
            if isinstance(node, ast.ClassDef):
                named_tuple = any(isinstance(base, ast.Name) and base.id == "NamedTuple"
                                  for base in node.bases)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        members.add(item)
                        found.append((f"{node.name}.{item.name}", item.name, "method"))
                    elif named_tuple and isinstance(item, ast.AnnAssign):
                        name = item.target.id
                        found.append((f"{node.name}.{name}", name, "field"))
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node not in members):
                found.append((node.name, node.name, "name"))
    return [d for d in found if not (d[1].startswith("__") and d[1].endswith("__"))]


def test_every_definition_is_reached_outside_the_tests():
    # a definition counts as reached if a module of the package or the
    # benchmark uses it: a function or class by any use of its name, a
    # method or property only as an attribute (``.name``), and a NamedTuple
    # field only as an attribute read, so a local variable or a keyword
    # argument of the same name does not count
    sources = [CHILD, *(path for path in PACKAGE.glob("*.py")
                        if path.name != "__init__.py")]
    reached = {
        "name": set().union(*map(_named, sources)),
        "method": set().union(*map(_attributes, sources)),
        "field": set().union(*(_attributes(path, ast.Load) for path in sources)),
    }
    defined = _definitions()
    assert {kind for _, _, kind in defined} == reached.keys()
    assert sorted(qualified for qualified, name, kind in defined
                  if name not in reached[kind]) == []


def test_every_import_is_used():
    # no linter ships with the project: a name a module imports must appear
    # in it as a name or as the base of an attribute (``module.name``)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def _loaded_by(code: str) -> list[str]:
    """The modules a fresh interpreter loads while it runs ``code``."""
    script = ("import json, sys\nbefore = set(sys.modules)\n" + code +
              "\nprint(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _package_modules(loaded: list[str]) -> list[str]:
    return [name for name in loaded if name.split(".")[0] == "capsid"]


def test_importing_the_cli_loads_no_command_module():
    loaded = _loaded_by("import capsid.cli")
    assert _package_modules(loaded) == ["capsid", "capsid.cli", "capsid.perms"]
    assert "dataclasses" not in loaded
    assert "fractions" not in loaded


@pytest.mark.parametrize("argv, unused", [
    (["enumerate-trees", "--n", "3", "--count-only"],
     {"series", "lattice", "pathways", "fixed_trees", "stabilizers"}),
    (["pathways", "--group", "klein4"], {"trees", "fixed_trees", "stabilizers"}),
    (["icosa-report"], {"trees", "fixed_trees", "stabilizers"}),
])
def test_a_command_loads_only_the_modules_it_uses(argv, unused):
    loaded = _loaded_by(f"import capsid.cli\ncapsid.cli.main({argv!r})")
    assert unused.isdisjoint(name.removeprefix("capsid.")
                             for name in _package_modules(loaded))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from capsid import *", namespace)
    del namespace["__builtins__"]
    assert len(namespace) == 43
    assert namespace.keys() == capsid._EXPORTS.keys()
    assert namespace["stabilizer"] is capsid.stabilizers.stabilizer


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        capsid.no_such_name
