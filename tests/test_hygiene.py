"""Static guards over the package source, read with the stdlib ast module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubepack"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree: ast.Module) -> dict:
    """Local name -> line for every import binding, __future__ aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_only_the_cli_imports_json():
    # the file codec is one decision, kept behind cli.write_json/read_json
    importers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if "json" in _imported_names(_tree(path))
    )
    assert importers == ["cli.py"]


def test_every_private_helper_is_referenced():
    # a module-level _name that nothing in the package names outside its
    # own definition is dead code left behind by a refactor
    trees = {path: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    refs = []  # (path, line, name) of every name or attribute use
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr))
    orphans = []
    for path, tree in trees.items():
        for node in tree.body:
            if not (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
            ):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name and not (where == path and line in inside)
                for where, line, name in refs
            ):
                orphans.append(f"{path.name}:{node.lineno} {node.name}")
    assert not orphans, f"private helpers nothing references: {orphans}"
