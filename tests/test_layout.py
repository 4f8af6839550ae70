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


def _imported_modules(path):
    """Every intlog module a file imports, as dotted names."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "intlog" if node.level else ""
            module = ".".join(p for p in (base, node.module or "") if p)
            out.add(module)
            out.update(f"{module}.{alias.name}" for alias in node.names)
    return out


def test_semantics_does_not_import_worlds():
    # semantics is the per-world evaluator and worlds the whole-set one
    # built on top of it; the reverse import would make a cycle
    assert "intlog.worlds" not in _imported_modules(SRC / "semantics.py")
