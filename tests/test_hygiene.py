"""Static guards over the package source, read with the stdlib ast module."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "cubepack"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# Exported functions that need no caller outside their module and its test.
ALLOWED = {
    "apply_move": "how a caller acts on a MoveProposal; the game oracles step it",
    "apply_coalition": "how a caller acts on a CoalitionProposal; the oracles step it",
    "improving_moves": "the moves is_nash summarises, for a caller to pick and apply",
}


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


def _references(path: Path) -> set:
    """Every Name id and Attribute attr in a file."""
    refs = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def test_every_exported_function_has_a_caller():
    # a public function that only its own module and its own test name is
    # API nothing uses: call it from elsewhere, demote it, or say in ALLOWED
    # why it stays
    init = _tree(PACKAGE / "__init__.py")
    source = {}  # exported name -> defining module
    listed = None
    for node in init.body:
        if isinstance(node, ast.ImportFrom):
            source.update((alias.name, node.module) for alias in node.names)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            listed = ast.literal_eval(node.value)
    assert sorted(listed) == sorted([*source, "__version__"]), (
        f"__all__ and __init__'s imports differ: "
        f"{sorted(set(listed) ^ set(source) ^ {'__version__'})}"
    )

    refs = {
        path: _references(path)
        for tree in ("src", "demos", "perfbench", "tests")
        for path in (REPO / tree).rglob("*.py")
    }
    functions = {
        module: {
            node.name
            for node in _tree(PACKAGE / f"{module}.py").body
            if isinstance(node, ast.FunctionDef)
        }
        for module in set(source.values())
    }
    uncalled = []
    for name, module in sorted(source.items()):
        if name not in functions[module]:
            continue  # classes are the result and exception types of the functions
        own = {PACKAGE / f"{module}.py", PACKAGE / "__init__.py",
               REPO / "tests" / f"test_{module}.py"}
        if not any(name in names for path, names in refs.items() if path not in own):
            uncalled.append(name)
    orphans = sorted(set(uncalled) - set(ALLOWED))
    assert not orphans, f"exported functions nothing else calls: {orphans}"
    stale = sorted(set(ALLOWED) - set(uncalled))
    assert not stale, f"ALLOWED entries that are called or not exported: {stale}"
