"""Every module-level import in the package is used by its module, every
private helper is used somewhere in the package, and every public method is
used somewhere in the package or in the README's Python examples.  The
canonical form ClearedMatrix.value() is read only where a report prints it.

Package __init__ files are skipped as modules under test: their imports are
the public re-exports.  They still count as places that use a helper.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "baxcheck"
SOURCES = sorted(PACKAGE.rglob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """{bound name: line} for the module-level imports, __future__ aside."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "FieldMatrix"
            try:
                used |= _used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"unused imports in {path.name}: {unused}"


def _references(tree: ast.AST) -> set[str]:
    """Names read as a bare name or an attribute, except inside a def of that name."""
    refs = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            refs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return refs


@functools.cache
def _package_references() -> set[str]:
    return set().union(*(_references(ast.parse(p.read_text(encoding="utf-8"))) for p in SOURCES))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_private_helpers_are_used(path):
    used = _package_references()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    dead = {
        node.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__") and node.name not in used
    }
    assert not dead, f"private helpers in {path.name} that nothing in the package uses: {dead}"


def _readme_references() -> set[str]:
    """Names read in the README's ```python blocks (the library quick tour)."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    return set().union(*(_references(ast.parse(block)) for block in blocks))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_public_methods_are_used(path):
    used = _package_references() | _readme_references()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    dead = {
        f"{cls.name}.{node.name}": node.lineno
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_") and node.name not in used
    }
    assert not dead, f"public methods in {path.name} that neither the package nor the README uses: {dead}"


def _value_calls(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, innermost enclosing def) of every call of a .value() method."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "value":
            found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


VALUE_READERS = {"cli.py": {"_baxterise"}, "exactnum/matrix.py": {"residual_size"}}


def test_canonical_value_is_read_only_for_reports():
    """ClearedMatrix.value() canonicalises every entry: only the printed R-matrix and a residual's size read it."""
    stray = [
        f"{module}:{line} in {where}"
        for path in SOURCES
        for module in [str(path.relative_to(PACKAGE))]
        for line, where in _value_calls(ast.parse(path.read_text(encoding="utf-8")))
        if where not in VALUE_READERS.get(module, ())
    ]
    assert not stray, f".value() read outside the report printers: {stray}"
