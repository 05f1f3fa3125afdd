"""Line trace: a pytest plugin printing file:line for each executable line of
src/cubepack that no test ran and GUARDS does not list, then exiting nonzero.
Run: PYTHONPATH=src:tools python -m pytest -q -p linetrace.  It sees in-process
tests only: a line run only in a subprocess (the demos, the benchmark self-test)
reads as unreached.  GUARDS keys by module and function the theorem guards no
sound input reaches, each with its count of unreached lines and the reason."""
import dis
import sys
from pathlib import Path

GUARDS = {
    ("game", "social_cost"): (2, "each used bin's costs sum to 1: cost conservation"),
    ("game", "best_response_dynamics"): (3, "an improving move raises the potential"),
    ("game", "poa_instance"): (2, "P' is Nash: full grids, grid-room lemma and Prop 1"),
    ("game", "spoa_instance"): (2, "P' is coalition-proof on power-of-two classes"),
    ("packing", "build_homogeneous"): (1, "a grid passing the epsilon check is valid"),
    ("languages", "build_separated_family"): (1, "good cores are separated by construction"),
    ("cli", "<module>"): (1, "runs only under python -m cubepack.cli"),
}
SRC = Path(__file__).resolve().parents[1] / "src" / "cubepack"
_files, _ran = {str(p): p.stem for p in SRC.glob("*.py")}, set()
_line = lambda f, e, a: _ran.add((f.f_code.co_filename, f.f_lineno)) or _line  # noqa: E731
sys.settrace(lambda f, e, a: _line(f, e, a) if f.f_code.co_filename in _files else None)

def _owners(code, owner=""):  # (line, enclosing named function) pairs
    owner = owner if code.co_name.startswith("<") and owner else code.co_name
    yield from ((line, owner) for _, line in dis.findlinestarts(code) if line)
    for const in code.co_consts:
        yield from _owners(const, owner) if hasattr(const, "co_lines") else ()

def pytest_sessionfinish(session):
    sys.settrace(None)
    left = {}
    for path, module in sorted(_files.items()):
        owners = dict(_owners(compile(Path(path).read_text(), path, "exec")))
        for line in sorted(set(owners) - {n for f, n in _ran if f == path}):
            left.setdefault((module, owners[line]), []).append(f"src/cubepack/{module}.py:{line}")
    unlisted = [at for key, ats in left.items() if len(ats) != GUARDS.get(key, [0])[0] for at in ats]
    sys.stdout.write("".join(f"{at}\n" for at in unlisted))
    session.exitstatus = session.exitstatus or int(bool(unlisted))
