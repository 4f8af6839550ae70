"""Module layering: no intlog module imports another one's private names."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "intlog"


def test_no_module_imports_private_names_of_another():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("intlog"):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    offenders.append(f"{path.name}: from {node.module} import {alias.name}")
    assert offenders == []
