"""Static guards over the package source, read with the stdlib ast module."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "cubepack"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# Exported functions that need no caller outside their module and its test,
# and unexported public functions that nothing outside their definition
# names under src/, demos/ or perfbench/.
ALLOWED = {
    "apply_move": "how a caller acts on a MoveProposal; the game oracles step it",
    "apply_coalition": "how a caller acts on a CoalitionProposal; the oracles step it",
    "potential": "test oracle: the Fraction potential dynamics checks in integers",
    "is_bad_word": "test oracle: the definition the core counts are checked against",
    "end_coordinate": "test oracle: the interval end place_word computes inline",
    "place_word": "one word through the class placer that every packing uses",
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


def test_only_build_homogeneous_builds_a_grid_bin():
    # verify_bin certifies a _grid_bin from its factors, so only the builder
    # of the H_k may make one; any other module's use must go through it
    tree = _tree(PACKAGE / "packing.py")
    builder = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                   and node.name == "build_homogeneous")
    inside = range(builder.lineno, builder.end_lineno + 1)
    uses = []
    for path in MODULES:
        if path.name == "geometry.py":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom):
                named = any(alias.name == "_grid_bin" for alias in node.names)
                allowed = path.name == "packing.py"
            else:
                named = "_grid_bin" in (getattr(node, "id", None), getattr(node, "attr", None))
                allowed = path.name == "packing.py" and getattr(node, "lineno", 0) in inside
            if named and not allowed:
                uses.append(f"{path.name}:{node.lineno}")
    assert not uses, f"_grid_bin named outside packing.build_homogeneous: {uses}"


def _uses_by_function(tree: ast.Module) -> list:
    """(innermost enclosing function, node) for every node inside a
    function, methods and nested functions included."""
    uses = []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else owner
            if inner is not None:
                uses.append((inner, child))
            walk(child, inner)

    walk(tree, None)
    return uses


def test_one_memoized_placement_lookup_in_game():
    # moves and coalitions ask every placement through _asked, the one
    # memo get-search-store: elsewhere a memo is passed on or counted by
    # len, never subscripted, tested for a key or sent a method call.
    # _place stays the pure search, the only caller of geometry's
    # integer core
    def is_memo(node):
        return "memo" in (getattr(node, "id", None), getattr(node, "attr", None))

    asks, cores = [], []
    for owner, node in _uses_by_function(_tree(PACKAGE / "game.py")):
        func = getattr(node, "func", None)
        reads_memo = (
            isinstance(node, ast.Subscript) and is_memo(node.value)
            or isinstance(func, ast.Attribute) and is_memo(func.value)
            or isinstance(node, ast.Compare) and any(is_memo(c) for c in node.comparators)
        )
        calls_place = isinstance(func, ast.Name) and func.id == "_place"
        if (reads_memo or calls_place) and owner != "_asked":
            asks.append(f"{owner}:{node.lineno}")
        if isinstance(node, ast.Name) and node.id == "_joint_corners" and owner != "_place":
            cores.append(f"{owner}:{node.lineno}")
    assert not asks, f"memo lookups or _place calls outside _asked: {asks}"
    assert not cores, f"_joint_corners named outside _place: {cores}"


def test_one_writer_in_the_cli():
    # every artifact gets its manifest and reaches the disk through _emit,
    # so no other function stores a "manifest" key or calls write_json
    writes = []
    for owner, node in _uses_by_function(_tree(PACKAGE / "cli.py")):
        func = getattr(node, "func", None)
        named = (
            (isinstance(func, ast.Name) and func.id == "write_json")
            or (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                and ast.unparse(node.slice) == "'manifest'")
            or (isinstance(node, ast.Dict)
                and any(ast.unparse(k) == "'manifest'" for k in node.keys if k))
            or (isinstance(node, ast.keyword) and node.arg == "manifest")
        )
        if named and owner != "_emit":
            writes.append(f"{owner}:{getattr(node, 'lineno', '?')}")
    assert not writes, f"manifests or write_json outside cli._emit: {writes}"


def test_only_the_builders_set_bin_factors():
    # verify_bin certifies a bin with factors from them, not from its cubes,
    # so only the one constructor that makes the cubes from the factors may
    # set them; a Bin's class-level None is the one other binding
    setters = {("geometry.py", "_factored_bin")}
    sets = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        owner = {node: name for name, node in _uses_by_function(tree)}
        default = [stmt.targets[0] for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "Bin"
                   for stmt in node.body
                   if isinstance(stmt, ast.Assign) and ast.unparse(stmt) == "_factors = None"]
        for node in ast.walk(tree):
            named = (
                (isinstance(node, ast.Attribute) and node.attr == "_factors"
                 and not isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Name) and node.id == "_factors"
                    and node not in default)
                or (isinstance(node, ast.keyword) and node.arg == "_factors")
                or (isinstance(node, ast.Constant) and node.value == "_factors")
            )
            if named and (path.name, owner.get(node)) not in setters:
                sets.append(f"{path.name}:{node.lineno}")
    assert not sets, f"_factors set outside _factored_bin: {sets}"


def test_only_the_cube_key_reader_reads_fraction_slots():
    # every geometric check reads its intervals from one table, so one
    # function reads a Fraction's private _numerator and _denominator slots
    slots, reads = ("_numerator", "_denominator"), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        owner = {node: name for name, node in _uses_by_function(tree)}
        reads += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if (getattr(node, "attr", None) in slots
                      or isinstance(node, ast.Constant) and node.value in slots)
                  and (path.name, owner.get(node)) != ("geometry.py", "_cube_keys")]
    assert not reads, f"Fraction slots read outside geometry._cube_keys: {reads}"


def test_only_geometry_scales_game_coordinates_onto_ints():
    # geometry scales every coordinate and side onto ints, a game content's
    # too, so game.py reads a rational's numerator or denominator only in
    # GameConfig._volumes: the volume scale and the class capacities
    ratio = ("numerator", "denominator", "as_integer_ratio")
    tree = _tree(PACKAGE / "game.py")
    config = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "GameConfig")
    volumes = next(node for node in config.body if getattr(node, "name", None) == "_volumes")
    inside = set(ast.walk(volumes))
    reads = [f"game.py:{node.lineno}" for node in ast.walk(tree)
             if (getattr(node, "attr", None) in ratio
                 or isinstance(node, ast.Constant) and node.value in ratio)
             and node not in inside]
    assert not reads, f"numerator or denominator read outside GameConfig._volumes: {reads}"


def test_only_the_grid_table_reads_the_class_geometry_in_the_baseline():
    # ClassHarmonicBaseline turns a class's side and epsilon into its grid
    # table once, in _grid; decide and placed read bases off that table and
    # do no rational arithmetic per item
    tree = _tree(PACKAGE / "online.py")
    owner = {node: name for name, node in _uses_by_function(tree)}
    baseline = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                    and node.name == "ClassHarmonicBaseline")
    reads = [f"{owner.get(node)}:{node.lineno}" for node in ast.walk(baseline)
             if isinstance(node, ast.Attribute) and node.attr in ("side", "epsilon")
             and owner.get(node) != "_grid"]
    assert not reads, f"side or epsilon read outside ClassHarmonicBaseline._grid: {reads}"


def test_only_the_hasher_imports_hashlib():
    # hashlib loads OpenSSL, about 3.4 MB resident, so importing cubepack
    # must not: cli._hasher imports it on first use
    imports = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        owner = {node: name for name, node in _uses_by_function(tree)}
        imports += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if (isinstance(node, ast.Import)
                        and any(a.name.split(".")[0] == "hashlib" for a in node.names)
                        or isinstance(node, ast.ImportFrom) and node.module == "hashlib")
                    and (path.name, owner.get(node)) != ("cli.py", "_hasher")]
    assert not imports, f"hashlib imported outside cli._hasher: {imports}"


def test_the_cli_replays_streams_only_through_replay():
    # cli._replay checks the coordinate cap before it replays, so every
    # stream the cli replays, from a file or built by reproduce, is capped
    tree = _tree(PACKAGE / "cli.py")
    owner = {node: name for name, node in _uses_by_function(tree)}
    named = [f"cli.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "run_bounded_space"
             and owner.get(node) != "_replay"]
    assert not named, f"run_bounded_space named outside cli._replay: {named}"


def _references(path: Path) -> set:
    """Every Name id and Attribute attr in a file."""
    refs = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def _name_uses(*roots: str) -> list:
    """(path, line, name) of every Name id and Attribute attr under the
    given top-level directories."""
    uses = []
    for root in roots:
        for path in (REPO / root).rglob("*.py"):
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.Name):
                    uses.append((path, node.lineno, node.id))
                elif isinstance(node, ast.Attribute):
                    uses.append((path, node.lineno, node.attr))
    return uses


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
    stale = sorted((set(ALLOWED) & set(source)) - set(uncalled))
    assert not stale, f"ALLOWED entries for exported functions that are called: {stale}"


def test_every_unexported_function_is_named():
    # a public module-level function that __init__ does not export and no
    # file under src/, demos/ or perfbench/ names outside its own definition
    # is dead code only tests keep alive: delete it, or say in ALLOWED why
    # it stays
    exported = set()
    for node in _tree(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom):
            exported.update(alias.name for alias in node.names)
    uses = _name_uses("src", "demos", "perfbench")
    unnamed = []
    for path in MODULES:
        for node in _tree(path).body:
            if (not isinstance(node, ast.FunctionDef) or node.name.startswith("_")
                    or node.name in exported):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name and not (where == path and line in inside)
                for where, line, name in uses
            ):
                unnamed.append(node.name)
    orphans = sorted(set(unnamed) - set(ALLOWED))
    assert not orphans, f"unexported functions nothing names: {orphans}"
    stale = sorted(set(ALLOWED) - exported - set(unnamed))
    assert not stale, f"ALLOWED entries for unexported functions named or gone: {stale}"


def test_every_public_member_is_named():
    # a public method or property of a package class that no file under
    # src/, demos/, perfbench/ or tests/ names outside its own definition is
    # API nothing uses; dunders and private members are exempt
    uses = _name_uses("src", "demos", "perfbench", "tests")
    unnamed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(_tree(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                inside = range(node.lineno, node.end_lineno + 1)
                if not any(
                    name == node.name and not (where == path and line in inside)
                    for where, line, name in uses
                ):
                    unnamed.append(f"{path.name}:{node.lineno} {cls.name}.{node.name}")
    assert not unnamed, f"class members nothing names: {unnamed}"


# Defaulted parameters of exported functions and of exported classes'
# __init__ that no call under src/, demos/ or perfbench/ passes, and why
# each stays.
ALLOWED_KNOBS = {
    "packing_from_dict.verify": "passed through read_json by pack verify and pack weight",
}


def _defaulted_params(fn: ast.FunctionDef) -> dict:
    """Defaulted parameter name -> its position, or None if keyword-only."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    first = len(positional) - len(fn.args.defaults)
    params = {a.arg: i for i, a in enumerate(positional) if i >= first}
    params.update(
        (a.arg, None)
        for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    )
    return params


def _splat_keys(tree: ast.Module) -> dict:
    """Name -> the constant keys a file binds in it as a dict, through
    `x = {"key": ...}` or `x["key"] = ...`."""
    keys = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Dict):
                keys.setdefault(target.id, set()).update(
                    k.value for k in node.value.keys if isinstance(k, ast.Constant)
                )
            elif (isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name)
                  and isinstance(target.slice, ast.Constant)):
                keys.setdefault(target.value.id, set()).add(target.slice.value)
    return keys


def test_every_defaulted_parameter_is_passed():
    # a default that no caller overrides is a knob nothing turns: make it a
    # constant, or say in ALLOWED_KNOBS why it stays.  A call passes a
    # parameter by keyword, by position or through a ** splat; a splat of a
    # dict the file fills with constant keys passes just those keys
    source = {}
    for node in _tree(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom):
            source.update((alias.name, node.module) for alias in node.names)
    knobs = {}  # "function.param" or "Class.param" -> position or None
    for module in set(source.values()):
        for node in _tree(PACKAGE / f"{module}.py").body:
            if source.get(getattr(node, "name", None)) != module:
                continue
            if isinstance(node, ast.FunctionDef):
                knobs.update(
                    (f"{node.name}.{param}", pos)
                    for param, pos in _defaulted_params(node).items()
                )
            elif isinstance(node, ast.ClassDef):
                # a call names the class, and its positions start past self
                for init in node.body:
                    if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                        knobs.update(
                            (f"{node.name}.{param}", None if pos is None else pos - 1)
                            for param, pos in _defaulted_params(init).items()
                        )
    passed = set()
    for root in ("src", "demos", "perfbench"):
        for path in (REPO / root).rglob("*.py"):
            tree = _tree(path)
            dict_keys = _splat_keys(tree)
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                keywords = {kw.arg for kw in call.keywords if kw.arg is not None}
                for kw in call.keywords:
                    if kw.arg is None:
                        splat = getattr(kw.value, "id", None)
                        keywords |= dict_keys.get(splat, {"**"})
                for knob, pos in knobs.items():
                    fn, param = knob.split(".")
                    if fn == name and (
                        param in keywords
                        or "**" in keywords
                        or (pos is not None and pos < len(call.args))
                    ):
                        passed.add(knob)
    unturned = sorted(set(knobs) - passed - set(ALLOWED_KNOBS))
    assert not unturned, f"defaulted parameters no caller passes: {unturned}"
    stale = sorted(set(ALLOWED_KNOBS) - (set(knobs) - passed))
    assert not stale, f"ALLOWED_KNOBS entries that are passed or gone: {stale}"


def test_one_budgeted_placement_search():
    # every placement search runs the one recursion of geometry's
    # _joint_corners, the only place that draws on a search budget; a
    # second search path with its own budget would raise it elsewhere
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in _tree(path).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and node.exc is not None and any(
                    getattr(n, "id", None) == "SearchBudgetError" for n in ast.walk(node.exc)
                ):
                    sites.append(f"{path.name}:{getattr(top, 'name', None)}")
    assert sites == ["geometry.py:_joint_corners"], sites


def test_no_truthy_result_stores_its_verdict():
    # a dataclass whose __bool__ is its verdict reads that verdict off its
    # witnesses; a bool field beside them says it a second time, and the
    # two can disagree
    stored = []
    for path in MODULES:
        for cls in ast.walk(_tree(path)):
            if not isinstance(cls, ast.ClassDef) or not any(
                "dataclass" in ast.unparse(dec) for dec in cls.decorator_list
            ):
                continue
            if any(isinstance(node, ast.FunctionDef) and node.name == "__bool__"
                   for node in cls.body):
                stored += [f"{path.name}:{node.lineno} {cls.name}.{node.target.id}"
                           for node in cls.body if isinstance(node, ast.AnnAssign)
                           and ast.unparse(node.annotation) == "bool"]
    assert not stored, f"truthy results with a bool field: {stored}"


def test_no_loop_runs_on_a_constant_true_test():
    # every loop in the package states the condition that ends it; a
    # `while True` that waits for a random draw or a search to succeed has
    # no bound when it does not
    loops = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.While) and isinstance(node.test, ast.Constant)
        and node.test.value
    ]
    assert not loops, f"while loops on a constant true test: {loops}"
