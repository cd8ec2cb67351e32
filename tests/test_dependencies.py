"""The library has no runtime dependencies: every module under ``sigmasum``
imports only the standard library and ``sigmasum`` itself, only at module
level, uses every name it imports, and takes no private name of a sibling
module."""
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


def _imported_names(tree):
    """(bound name, imported name, sibling) for each import of the module;
    ``sibling`` says whether the name comes from another sigmasum module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0],
                       alias.name, alias.name.startswith("sigmasum."))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            sibling = node.level > 0 or (node.module or "").startswith(
                "sigmasum")
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, sibling


def test_library_modules_use_every_import_and_no_private_sibling_name():
    root = Path(sigmasum.__file__).parent
    problems = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for bound, name, sibling in _imported_names(tree):
            where = f"{path.relative_to(root)}: {name}"
            if bound not in used:
                problems.append(f"{where} is never used")
            if sibling and name.startswith("_"):
                problems.append(f"{where} is private to its module")
    assert problems == []
