"""The library has no runtime dependencies: every module under ``sigmasum``
imports only the standard library and ``sigmasum`` itself, and only at module
level."""
import ast
import sys
from pathlib import Path

import sigmasum


def test_library_imports_only_the_standard_library():
    root = Path(sigmasum.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "sigmasum" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.relative_to(root)}: {name}")
    assert foreign == []


def test_library_imports_only_at_module_level():
    root = Path(sigmasum.__file__).parent
    nested = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested |= {f"{path.relative_to(root)}:{inner.lineno}"
                           for inner in ast.walk(node)
                           if isinstance(inner, (ast.Import, ast.ImportFrom))}
    assert sorted(nested) == []
