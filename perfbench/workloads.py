"""The benchmark's four workloads: inputs, jobs and output checks.

Each workload is a function of a Setting: the freshly imported package,
a seeded random.Random and `toy` (tiny sizes for the self-test).  It
builds what a user would build once before asking for verdicts (source
packings, streams, start configurations); that part is timed as set-up.  It returns the pass's
jobs as chains: a chain's jobs run in order, each receiving the previous
job's result, and the runner shuffles the chains.

Every job's output is checked by exact invariants that the benchmark
states itself, so a wrong verdict counts as a failure, never as a fast
timing.  Outputs that may legitimately change (bundle hashes, bins used)
are reported separately as drift against recorded anchors.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable, Optional


@dataclass
class Setting:
    """What a workload function gets: the fresh package and the pass's seed."""

    cp: Any  # the cubepack package
    cli: Any  # cubepack.cli
    rng: random.Random
    seed: int  # the workload seed, as given on the command line
    toy: bool
    workdir: Path  # where reproduce may write its bundles
    clock: Callable[[], float]  # the runner's job clock, which skips speed probes


@dataclass
class Job:
    """One public call of the library, timed on its own.

    `check` returns the broken invariants (empty when the output is right);
    `units` counts the work done, in the workload's unit.  `samples`, when
    set, holds per-item latencies the call records itself, and `count` is
    how many jobs the call stands for in `attempted` and `failed`.
    """

    label: str
    call: Callable[[Any], Any]
    check: Callable[[Any], list]
    units: Callable[[Any], int]
    samples: Optional[list] = None
    count: int = 1
    drift: Callable[[Any], dict] = field(default=lambda result: {})


def _problems(*pairs) -> list:
    return [message for ok, message in pairs if not ok]


def _harmonic(classes) -> F:
    return sum((F(1, k - 1) for k in classes), F(0))


# -- construct ----------------------------------------------------------------


def _cubes(result) -> int:
    return len(result.bin.cubes)


def _check_warmup(d):
    classes = range(2, d + 1)

    def check(packing):
        return _problems(
            (len(packing.bin.cubes) == sum((k - 1) ** (d - 1) for k in classes),
             "cube count differs from sum of (k-1)^(d-1)"),
            (packing.weight() == _harmonic(classes), "weight differs from sum of 1/(k-1)"),
        )

    return check


def _check_grid(k, d):
    def check(hom):
        return _problems((len(hom.bin.cubes) == (k - 1) ** d, "grid is not (k-1)^d cubes"))

    return check


def _check_family(d, classes):
    def check(family):
        return _problems(
            (family.d == d and family.classes == classes, "wrong dimension or classes"),
            (all(s.core_good > 0 for s in family.stats.values()), "a class has no good core"),
        )

    return check


def _selectable(language, cap):
    """Words build_packing places for a class under a per-class cap."""
    if cap is None:
        return language.count()
    if language.words is None and language.core_words is None:
        return min(cap, language.core_size())  # one word per good core
    return min(cap, language.count())


def _check_family_packing(cap):
    def check(result):
        family, packing = result
        want = {k: _selectable(family.languages[k], cap) for k in family.classes}
        return _problems(
            (packing.nu == want, f"per-class cube counts {packing.nu} != {want}"),
            (len(packing.bin.cubes) == sum(want.values()), "cube total differs"),
            (cap is not None or packing.weight() == family.weight(),
             "uncapped packing weight differs from family weight"),
        )

    return check


def _family_chain(cp, label, d, classes, seed, mode, epsilon, cap):
    return [
        Job(f"{label} family", lambda _: cp.build_separated_family(d, classes, seed, mode=mode),
            _check_family(d, classes), lambda r: 0),
        Job(f"{label} packing",
            lambda fam: (fam, cp.build_packing(fam, epsilon, per_class_cap=cap)),
            _check_family_packing(cap), lambda r: _cubes(r[1])),
    ]


def construct(s: Setting):
    """Static single-bin constructions, each certified by verify_bin."""
    cp, rng, toy = s.cp, s.rng, s.toy
    dims = range(2, 4) if toy else range(2, 7)
    grid_ks = range(2, 4) if toy else range(2, 8)
    chains = []
    for d in dims:
        family = cp.warmup_family(d)
        chains.append([Job(f"warmup d={d}",
                           lambda _, fam=family, d=d: cp.build_packing(fam, F(1, d * d)),
                           _check_warmup(d), _cubes)])
        for k in grid_ks:
            chains.append([Job(f"grid k={k} d={d}",
                               lambda _, k=k, d=d: cp.build_homogeneous(k, d, F(1, k - 1)),
                               _check_grid(k, d), _cubes)])
    if toy:
        separated = [("six-class d=4", 4, (2, 3, 4), "enumerate", None),
                     ("d=6", 6, (2, 3), "enumerate", 20),
                     ("d=8 implicit", 8, (2, 3, 4), "implicit", 20)]
    else:
        separated = [("six-class d=4", 4, (2, 3, 4, 5, 6, 7), "enumerate", None),
                     ("d=14", 14, (2, 3, 4, 5), "enumerate", 200),
                     ("d=16 implicit", 16, (2, 3, 4, 5), "implicit", 200),
                     ("d=20 implicit", 20, (2, 3, 4, 5, 6), "implicit", 200)]
    for label, d, classes, mode, cap in separated:
        epsilon = F(1, max(classes) ** 2)
        chains.append(_family_chain(cp, label, d, classes, rng.randrange(2**32),
                                    mode, epsilon, cap))
    return chains


# -- stream -------------------------------------------------------------------

class ItemClock:
    """Online algorithm wrapper: an item's latency is the gap between
    successive decide() calls, the last one closed by `stop`."""

    def __init__(self, algorithm, samples: list, clock) -> None:
        self._algorithm = algorithm
        self._samples = samples
        self._clock = clock
        self._last = None

    def decide(self, cls, open_bins):
        now = self._clock()
        if self._last is not None:
            self._samples.append(now - self._last)
        self._last = now
        return self._algorithm.decide(cls, open_bins)

    def placed(self, item_index, k, bin_id, base):
        self._algorithm.placed(item_index, k, bin_id, base)

    def stop(self):
        self._samples.append(self._clock() - self._last)


def _stream_job(cp, d, m, order, adv, clock):
    samples: list = []
    items = adv.instance.total_items

    def call(_):
        algorithm = ItemClock(cp.ClassHarmonicBaseline(m), samples, clock)
        run = cp.run_bounded_space(algorithm, adv.instance, m,
                                   opt_upper_bound=adv.offline_bin_count,
                                   certified_lower_bound=adv.lower_bound)
        algorithm.stop()
        return run

    def check(run):
        return _problems(
            (len(run.placements) == items == len(samples), "not every item was placed once"),
            (run.report is not None and run.report.bins_used == run.bins_used,
             "ratio report disagrees with bins_used"),
            (run.bins_used >= adv.lower_bound, "bins_used below the certified lower bound"),
            (run.report is not None
             and run.report.ratio == F(run.bins_used, adv.offline_bin_count),
             "ratio != bins_used / offline bins"),
        )

    return Job(f"stream d={d} M={m} {order}", call, check, lambda run: len(run.placements),
               samples=samples, count=items,
               drift=lambda run: {f"stream.bins_used.d{d}.M{m}.{order}": run.bins_used})


def stream(s: Setting):
    """The bounded-space harness on adversarial streams."""
    cp, toy = s.cp, s.toy
    chains = []
    for d in ((3,) if toy else (3, 4, 5)):
        family = cp.warmup_family(d)
        slim = cp.SeparatedFamily(d, (2, 3), {k: family.languages[k] for k in (2, 3)})
        packing = cp.build_packing(slim, F(1, 9))
        for m in ((1,) if toy else (1, 2)):
            for order in ("ascending", "descending"):
                adv = cp.adversarial_instance(packing, m, order=order)
                chains.append([_stream_job(cp, d, m, order, adv, s.clock)])
    return chains


# -- games --------------------------------------------------------------------


def _check_nash(result):
    return _problems((bool(result) and result.is_nash, "mixture is not certified Nash"))


def _strong_job(cp, config, cap, packing, inst):
    def check(result):
        return _problems(
            (bool(result) and result.is_strong_nash, "toy is not certified strong Nash"),
            (result.max_coalition_size == cap, "coalition cap not honoured"),
            (inst.ratio == packing.weight(), "SPoA ratio != packing weight"),
        )

    return Job(f"strong nash cap={cap}", lambda _: cp.is_strong_nash(config, cap), check,
               lambda r: 1)


def _dynamics_job(cp, index, config, policy_seed):
    def call(_):
        result = cp.best_response_dynamics(config, "random", seed=policy_seed)
        return result, cp.sparse_bin_report(result.config, nash_result=result.certificate)

    def check(outcome):
        result, audit = outcome
        return _problems(
            (result.status == "nash", f"dynamics ended as {result.status}"),
            (audit.conditioned and audit.sparse_count_ok is True,
             "more than one sparse bin at a certified endpoint"),
            (audit.bin_bound_ok, "bin count above 2^d * volume + 1"),
        )

    return Job(f"dynamics {index}", call, check, lambda r: 1)


def games(s: Setting):
    """Equilibrium certification and best-response dynamics."""
    cp, rng, toy = s.cp, s.rng, s.toy
    chains = []
    top = 4 if toy else 6
    d = 2 if toy else 3
    for k in range(2, top + 1):
        for ell in range(k + 1, top + 1):
            config = cp.homogeneous_mixture([k, ell], d, F(1, ell - 1))
            chains.append([Job(f"nash ({k},{ell})", lambda _, c=config: cp.is_nash(c),
                               _check_nash, lambda r: 1)])

    family = cp.build_separated_family(2, (2, 4), rng.randrange(2**32))
    packing = cp.build_packing(family, F(1, 16))
    inst = cp.spoa_instance(packing, copies_cap=16, certify=False)
    chains.append([_strong_job(cp, inst.p_prime, 1 if toy else 3, packing, inst)])

    # Start sizes cycle through 2..12 so that every pass has the same size
    # mix; classes and move choices are random.  Each item starts alone.
    for index in range(5 if toy else 50):
        n = 2 + index % 11
        items = tuple(cp.GameItem(i, cp.CubeClass(rng.choice((2, 3, 4)), F(1, 9), 2))
                      for i in range(n))
        config = cp.GameConfig(2, items, {i: i for i in range(n)},
                               {i: (F(0), F(0)) for i in range(n)})
        chains.append([_dynamics_job(cp, index, config, rng.randrange(2**32))])
    return chains


# -- reproduce ----------------------------------------------------------------


def _bundle_hash(out: Path) -> str:
    last = (out / "bundle.sha256").read_text().strip().splitlines()[-1]
    return last.split()[1]


def _check_reproduce(d_list):
    def check(result):
        code, out, printed = result
        try:
            if code != 0:
                return [f"reproduce exited {code}"]
            rows = {row["d"]: row for row in
                    json.loads((out / "summary.json").read_text())["rows"]}
            problems = _problems(
                (sorted(rows) == list(d_list), "summary lacks a dimension"),
                (f"bundle {_bundle_hash(out)}" in printed, "printed bundle differs from file"),
            )
            for d, row in rows.items():
                stages = {s: b for s, b in row.items() if s != "d"}
                online = json.loads((out / f"online_d{d}.json").read_text())["ratio_report"]
                problems += _problems(
                    (all(b.get("status") in ("ok", "skipped") for b in stages.values()),
                     f"d={d}: a stage failed"),
                    (F(row["family"]["weight"]) == _harmonic(range(2, d + 1)),
                     f"d={d}: family weight != sum of 1/(k-1)"),
                    (d != 3 or row["family"]["weight"] == "3/2", "d=3 weight is not 3/2"),
                    (online["bins_used"] >= online["certified_lower_bound"],
                     f"d={d}: bins_used below lower bound"),
                    (F(online["ratio"]) == F(online["bins_used"], online["opt_upper_bound"]),
                     f"d={d}: online ratio != bins_used / offline"),
                    (F(row["poa"]["ratio"]) == _harmonic((2, 3)),
                     f"d={d}: PoA ratio != weight of classes (2, 3)"),
                    (row["spoa"]["status"] == "skipped"
                     or F(row["spoa"]["ratio"]) == _harmonic((2, 4)),
                     f"d={d}: SPoA ratio != weight of classes (2, 4)"),
                )
            return problems
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return check


def reproduce(s: Setting):
    """The user-facing pipeline, in process through cubepack.cli.main."""
    d_list = (3,) if s.toy else (3, 4, 5)
    out = s.workdir / f"reproduce-{s.rng.randrange(2**32):08x}"
    argv = ["--out-dir", str(out), "reproduce", "--d-list", *map(str, d_list),
            "--seed", str(s.seed)]

    def call(_):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = s.cli.main(argv)
        return code, out, printed.getvalue()

    anchor = "reproduce.bundle_sha256" + ("" if d_list == (3, 4, 5) else ".toy")
    job = Job(f"reproduce --d-list {' '.join(map(str, d_list))}", call,
              _check_reproduce(d_list), lambda r: len(d_list),
              drift=lambda r: {anchor: _bundle_hash(r[1])} if r[0] == 0 else {})
    return [[job]]


# name -> (workload function, unit of work for work_per_s)
WORKLOADS = {
    "construct": (construct, "cubes certified"),
    "stream": (stream, "stream items placed"),
    "games": (games, "certification or dynamics jobs"),
    "reproduce": (reproduce, "dimensions reproduced"),
}
