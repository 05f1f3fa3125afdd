"""Span tracing for the benchmark's traced mode, and the per-layer metrics.

`Tracer.install` rebinds the public module-level functions of each cubepack
layer to wrappers that record one span per call.  The rebinding is done in
the defining module and in every cubepack module that imported the
function, so calls between layers are seen as well as the benchmark's own
calls.  Nothing under src/ is edited.  Work counts are read from the result
objects the traced calls return (BinVerification, RunResult,
StrongNashResult, DynamicsResult, SeparatedFamily, SeparationResult, ...),
never from module globals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from pathlib import Path

LAYERS = ("geometry", "languages", "packing", "online", "game", "cli")

# Public functions that act on a single number, cube, word or triple.  They
# run up to millions of times per pass, so a span per call would cost more
# than the work it measures; their time counts as self time of the caller.
UNTRACED = frozenset({
    "as_rational", "format_rational", "intervals_disjoint", "cube_volume",
    "cubes_disjoint", "cube_to_dict", "cube_from_dict",
    "core_alphabet", "is_bad_word",
    "base_coordinate", "end_coordinate", "interval_for",
    "gap_inequality_holds", "place_word",
    "prop1_check", "meir_moser_predicate",
})

# reproduce writes one artifact per stage and dimension; the file name
# prefix names the stage the artifact closes.
STAGE_OF_ARTIFACT = {
    "family": "family", "packing": "packing", "instance": "adversary",
    "online": "online", "poa": "poa", "spoa": "spoa",
}
CLI_STAGES = ("family", "packing", "adversary", "online", "poa", "spoa")
HARNESS_DIMENSIONS = (3, 4, 5)


def _bytes_under(out_dir) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).iterdir() if p.is_file())


# What each traced call leaves on its span, read from its result object.
EXTRACT = {
    "verify_bin": lambda r, a: r.cube_count,
    "run_bounded_space": lambda r, a: (a[1].d, len(r.placements), r.bins_used),
    "is_strong_nash": lambda r, a: (r.coalitions_checked, r.assignments_checked),
    "best_response_dynamics": lambda r, a: r.steps,
    "build_separated_family": lambda r, a: (
        r.fsets.rejections if r.fsets is not None else 0,
        sum(s.core_good for s in r.stats.values()),
        sum(s.core_total for s in r.stats.values()),
    ),
    "are_separated": lambda r, a: (r.method, r.pairs_checked),
    "build_packing": lambda r, a: len(r.bin.cubes),
    "build_homogeneous": lambda r, a: len(r.bin.cubes),
    "write_json": lambda r, a: Path(a[0]).name,
    "save_family": lambda r, a: Path(a[0]).name,
    "cmd_reproduce": lambda r, a: _bytes_under(a[0].out_dir),
}


class Span:
    """One traced call: name, layer, start, end, parent span index, job id."""

    __slots__ = ("name", "layer", "start", "end", "parent", "job", "info")

    def __init__(self, name, layer, parent, job):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.job = job
        self.start = self.end = 0.0
        self.info = None

    def as_row(self) -> list:
        return [self.name, self.layer, self.start, self.end, self.parent, self.job,
                self.info]


class Tracer:
    """Keeps spans in memory; `job` labels the spans of the job running now.

    `clock` times the spans; the runner passes its job clock, which skips
    the time its speed probes take.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.job = None
        self._stack: list[int] = []

    def install(self, package) -> None:
        """Wrap every traced function of a freshly imported package."""
        prefix = package.__name__
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{prefix}.{layer}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and name not in UNTRACED):
                    wrapped[id(fn)] = self._wrap(layer, name, fn)
        modules = [m for n, m in list(sys.modules.items())
                   if n == prefix or n.startswith(prefix + ".")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                w = wrapped.get(id(value))
                if w is not None:
                    setattr(mod, attr, w)

    def _wrap(self, layer, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        extract = EXTRACT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else None, self.job)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if extract is not None:
                span.info = extract(result, args)
            return result

        return traced


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer metrics, per traced pass, from the spans of `passes` passes.

    A span's self time is its duration minus the time its child spans
    cover; calls are single-threaded, so children never overlap.
    """
    n = len(spans)
    dur = [s.end - s.start for s in spans]
    child = [0.0] * n
    under_strong = [False] * n  # has an is_strong_nash ancestor (or is one)
    reproduce_of = [None] * n   # index of the enclosing cmd_reproduce span
    for i, s in enumerate(spans):
        p = s.parent
        if p is not None:
            child[p] += dur[i]
        under_strong[i] = s.name == "is_strong_nash" or (p is not None and under_strong[p])
        reproduce_of[i] = i if s.name == "cmd_reproduce" else (
            reproduce_of[p] if p is not None else None)

    self_by_layer = {layer: 0.0 for layer in LAYERS}
    self_by_name: dict[str, float] = {}
    incl_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, s in enumerate(spans):
        own = dur[i] - child[i]
        self_by_layer[s.layer] += own
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + own
        incl_by_name[s.name] = incl_by_name.get(s.name, 0.0) + dur[i]
        calls[s.name] = calls.get(s.name, 0) + 1

    def total(name, pick=lambda info: info):
        return sum(pick(s.info) for s in spans if s.name == name and s.info is not None)

    verify_cubes = total("verify_bin")
    sep = [s.info for s in spans if s.name == "are_separated" and s.info is not None]
    exact = sum(1 for method, _ in sep if method in ("product-core", "exhaustive"))
    families = [s.info for s in spans
                if s.name == "build_separated_family" and s.info is not None]
    harness = [(s.info, dur[i]) for i, s in enumerate(spans)
               if s.name == "run_bounded_space" and s.info is not None]
    items = sum(info[1] for info, _ in harness)
    assignments = total("is_strong_nash", lambda info: info[1])
    steps = total("best_response_dynamics")

    stage_s = {stage: 0.0 for stage in CLI_STAGES}
    last_end: dict[int, float] = {}
    for i, s in enumerate(spans):
        owner = reproduce_of[i]
        if s.name not in ("write_json", "save_family") or owner is None or s.info is None:
            continue
        start = last_end.get(owner, spans[owner].start)
        last_end[owner] = s.end
        stage = STAGE_OF_ARTIFACT.get(s.info.split("_d")[0])
        if stage is not None:
            stage_s[stage] += s.end - start

    m = {}  # totals over all traced passes
    r = {}  # rates and fractions, already per unit of work
    m["geometry.self_s"] = self_by_layer["geometry"]
    m["geometry.verify_bin.calls"] = calls.get("verify_bin", 0)
    m["geometry.verify_bin.cubes"] = verify_cubes
    m["geometry.verify_bin.self_s"] = self_by_name.get("verify_bin", 0.0)
    r["geometry.verify_bin.us_per_cube"] = 1e6 * _ratio(
        incl_by_name.get("verify_bin", 0.0), verify_cubes)
    m["geometry.find_free_position.calls"] = calls.get("find_free_position", 0)
    m["geometry.find_free_position.self_s"] = self_by_name.get("find_free_position", 0.0)
    r["geometry.find_free_position.us_per_call"] = 1e6 * _ratio(
        incl_by_name.get("find_free_position", 0.0), calls.get("find_free_position", 0))
    m["languages.self_s"] = self_by_layer["languages"]
    m["languages.build_separated_family.self_s"] = self_by_name.get(
        "build_separated_family", 0.0)
    m["languages.are_separated.pairs_checked"] = sum(pairs for _, pairs in sep)
    r["languages.are_separated.exact_frac"] = _ratio(exact, len(sep))
    m["languages.fsets.rejections"] = sum(f[0] for f in families)
    r["languages.cores.good_frac"] = _ratio(sum(f[1] for f in families),
                                            sum(f[2] for f in families))
    m["packing.self_s"] = self_by_layer["packing"]
    m["packing.build_packing.self_s"] = self_by_name.get("build_packing", 0.0)
    m["packing.build_homogeneous.self_s"] = self_by_name.get("build_homogeneous", 0.0)
    m["packing.cubes_placed"] = total("build_packing") + total("build_homogeneous")
    m["online.self_s"] = self_by_layer["online"]
    m["online.run_bounded_space.items"] = items
    m["online.run_bounded_space.self_s"] = self_by_name.get("run_bounded_space", 0.0)
    m["online.run_bounded_space.bins_used"] = sum(info[2] for info, _ in harness)
    r["online.harness.us_per_item"] = 1e6 * _ratio(sum(t for _, t in harness), items)
    for d in HARNESS_DIMENSIONS:
        at_d = [(info, t) for info, t in harness if info[0] == d]
        r[f"online.harness.us_per_item.d{d}"] = 1e6 * _ratio(
            sum(t for _, t in at_d), sum(info[1] for info, _ in at_d))
    m["game.self_s"] = self_by_layer["game"]
    m["game.is_nash.calls"] = calls.get("is_nash", 0)
    m["game.is_nash.self_s"] = self_by_name.get("is_nash", 0.0)
    m["game.is_strong_nash.coalitions_checked"] = total("is_strong_nash", lambda info: info[0])
    m["game.is_strong_nash.assignments_checked"] = assignments
    m["game.is_strong_nash.geometry_calls"] = sum(
        1 for i, s in enumerate(spans) if s.name == "find_free_position" and under_strong[i])
    r["game.is_strong_nash.assignments_per_s"] = _ratio(
        assignments, incl_by_name.get("is_strong_nash", 0.0))
    m["game.best_response_dynamics.steps"] = steps
    r["game.best_response_dynamics.us_per_step"] = 1e6 * _ratio(
        incl_by_name.get("best_response_dynamics", 0.0), steps)
    m["game.poa_instance.self_s"] = self_by_name.get("poa_instance", 0.0)
    m["cli.self_s"] = self_by_layer["cli"]
    for stage in CLI_STAGES:
        m[f"cli.stage.{stage}.s"] = stage_s[stage]
    m["cli.bytes_written"] = total("cmd_reproduce")
    m["trace.spans"] = n

    return {**{k: v / passes for k, v in m.items()}, **r}
