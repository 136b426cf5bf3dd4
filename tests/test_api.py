import ast
from pathlib import Path

import capsid

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def test_benchmark_imports_resolve():
    # the benchmark's traced mode imports these names lazily, so a deleted
    # export would only fail there
    names = set()
    for node in ast.walk(ast.parse(CHILD.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "capsid":
            names.update(alias.name for alias in node.names)
    assert names
    missing = sorted(name for name in names if not hasattr(capsid, name))
    assert missing == []
