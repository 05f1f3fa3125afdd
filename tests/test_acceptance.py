"""Acceptance gate: eleven end-to-end checks, one PASS/FAIL line each.

Each test prints its verdict before asserting, so a red run still shows
the full scoreboard under pytest -s.  Stated runtime budgets are part
of the contract and enforced with a wall clock.
"""

import itertools
import json
import random
import time
from fractions import Fraction as F

import pytest

from cubepack import (
    ClassHarmonicBaseline,
    CubeClass,
    GameConfig,
    GameItem,
    adversarial_instance,
    best_response_dynamics,
    build_homogeneous,
    build_packing,
    build_separated_family,
    count_good_words,
    gap_inequality_holds,
    homogeneous_mixture,
    is_gapped,
    is_nash,
    is_strong_nash,
    meir_moser_predicate,
    offline_certificate,
    poa_instance,
    prop1_sweep,
    run_bounded_space,
    sparse_bin_report,
    spoa_instance,
    verify_bin,
    warmup_family,
)
from cubepack.cli import main as cli_main
from cubepack.languages import core_alphabet
from cubepack.packing import base_coordinate, end_coordinate


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_01_geometry_exactness():
    t0 = time.perf_counter()
    failures = []
    for d in range(2, 7):
        packing = build_packing(warmup_family(d), F(1, d * d))
        if not verify_bin(packing.bin):
            failures.append(("warmup", d))
        for k in range(2, 8):
            hom = build_homogeneous(k, d, F(1, k - 1))
            if not verify_bin(hom.bin):
                failures.append(("homogeneous", k, d))
    six = build_separated_family(4, (2, 3, 4, 5, 6, 7), seed=0)
    packing = build_packing(six, F(1, 49))
    if not verify_bin(packing.bin):
        failures.append(("six-class", 4))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "geometry exactness",
        not failures and elapsed < 10.0,
        f"warmup d=2..6, grids k=2..7, one six-class family; {elapsed:.1f}s",
    )


def test_02_interval_gaps_exhaustive():
    gap_ok = all(
        gap_inequality_holds(k, kp, F(1, 144))
        for k in range(2, 12)
        for kp in range(k + 1, 13)
    )
    overlap_ok = True
    for k in range(2, 13):
        ivs = {
            j: (base_coordinate(k, j, F(1, 144)), end_coordinate(k, j, F(1, 144)))
            for j in range(1, k + 1)
        }
        overlapping = {
            (i, j)
            for i, j in itertools.combinations(range(1, k + 1), 2)
            if not (ivs[i][1] <= ivs[j][0] or ivs[j][1] <= ivs[i][0])
        }
        if overlapping != {(k - 1, k)}:
            overlap_ok = False
    report(
        2,
        "staggered interval structure",
        gap_ok and overlap_ok,
        "cross-class gaps exact for 2<=k<k'<=12, eps=1/144; "
        "only (k-1, k) overlaps within a class",
    )


def test_03_warmup_family_properties():
    ok = True
    for d in range(2, 11):
        fam = warmup_family(d)
        sizes = fam.sizes()
        ok = ok and all(bool(is_gapped(fam.languages[k])) for k in fam.classes)
        ok = ok and bool(fam.certify())
        ok = ok and all(sizes[k] == (k - 1) ** (d - 1) for k in fam.classes)
        ok = ok and fam.weight() == sum(
            (F(1, k - 1) for k in fam.classes), F(0)
        )
    ok = ok and warmup_family(4).weight() == F(11, 6)
    report(
        3,
        "hand-built family properties",
        ok,
        "d=2..10: gapped, separated, |L_k|=(k-1)^(d-1), weight=sum 1/(k-1)",
    )


def _brute_good_count(k, coords, j_sets):
    pos = {c: i for i, c in enumerate(coords)}
    n = 0
    for v in itertools.product(core_alphabet(k), repeat=len(coords)):
        if not any(all(v[pos[i]] != k for i in j) for j in j_sets):
            n += 1
    return n


def test_04_randomized_family_certification():
    combos = [(4, (2, 3)), (6, (2, 3, 4)), (2, (2, 4)), (8, (2, 3, 4, 5))]
    cert_ok = True
    for seed in range(20):
        for d, classes in combos:
            fam = build_separated_family(d, classes, seed=seed)
            cert_ok = cert_ok and bool(fam.certify())

    count_ok = count_good_words(3, (1, 2, 3), [(1, 2)]) == 6
    rng = random.Random(11)
    for _ in range(20):
        k = rng.randrange(3, 6)
        size = rng.randrange(1, 9)
        if (k - 1) ** size > 10**6:
            continue
        coords = tuple(sorted(rng.sample(range(1, 13), size)))
        j_sets = [
            tuple(sorted(rng.sample(coords, rng.randrange(1, size + 1))))
            for _ in range(rng.randrange(0, min(k - 1, 4)))
        ]
        count_ok = count_ok and count_good_words(k, coords, j_sets) == (
            _brute_good_count(k, coords, j_sets)
        )
    report(
        4,
        "randomized family construction",
        cert_ok and count_ok,
        "80 builds certified across 20 seeds; "
        "inclusion-exclusion matches brute force",
    )


def test_05_adversary_counting():
    t0 = time.perf_counter()
    packing = build_packing(warmup_family(3), F(1, 9))
    ok = True
    details = []
    for m in (1, 2):
        adv = adversarial_instance(packing, m)
        ok = ok and adv.lower_bound == 12 * m
        run = run_bounded_space(
            ClassHarmonicBaseline(m),
            adv.instance,
            m,
            opt_upper_bound=adv.offline_bin_count,
            certified_lower_bound=adv.lower_bound,
        )
        ok = ok and run.bins_used >= adv.lower_bound
        offline = offline_certificate(packing, adv.scale)
        ok = ok and len(offline) <= 16 * m
        ok = ok and all(bool(verify_bin(b)) for b in offline)
        placed = sum(len(b.cubes) for b in offline)
        ok = ok and placed == adv.instance.total_items
        ok = ok and F(adv.lower_bound, len(offline)) >= F(3, 4)
        ok = ok and run.report.ratio >= F(3, 4)
        details.append(f"M={m}: {adv.lower_bound}<={run.bins_used} bins, "
                       f"offline {len(offline)}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(5, "adversary lower bound", ok,
           "; ".join(details) + f"; {elapsed:.1f}s")


def test_06_grid_regrouping_sweep():
    t0 = time.perf_counter()
    checked, failures = prop1_sweep(100, 20)
    elapsed = time.perf_counter() - t0
    ok = not failures and checked == 4851 * 19 and elapsed < 5.0
    report(6, "grid regrouping inequality", ok,
           f"{checked} triples, {elapsed:.1f}s")


def test_07_mixture_nash_certification():
    ok = True
    count = 0
    for d in (2, 3):
        for size in (2, 3, 4):
            for classes in itertools.combinations((2, 3, 4, 5), size):
                eps = F(1, max(classes) - 1)
                cfg = homogeneous_mixture(list(classes), d, eps)
                ok = ok and bool(is_nash(cfg))
                count += 1

    # an under-filled grid next to a lone cube admits a concrete move
    k, d, eps = 3, 2, F(1, 9)
    cls = CubeClass(k, eps, d)
    side = cls.side
    grid = [
        (F(i) * side, F(j) * side) for i in range(2) for j in range(2)
    ][:3]
    items = tuple(GameItem(i, cls) for i in range(4))
    broken = GameConfig(
        d,
        items,
        {0: 0, 1: 1, 2: 1, 3: 1},
        {0: (F(0), F(0)), 1: grid[0], 2: grid[1], 3: grid[2]},
    )
    verdict = is_nash(broken)
    ok = ok and not verdict
    move = verdict.moves[0] if verdict.moves else None
    ok = ok and move is not None and move.source_bin == 0 and move.target_bin == 1
    ok = ok and move.cost_after < move.cost_before
    report(
        7,
        "homogeneous mixtures are equilibria",
        ok,
        f"{count} mixtures pass; the under-filled grid yields "
        f"item {move.item_id}: bin 0 -> 1" if move else "no move found",
    )


def test_08_price_of_anarchy_instance():
    packing = build_packing(warmup_family(3), F(1, 9))
    inst = poa_instance(packing)
    ok = (
        len(inst.p.bins_map) == 8
        and len(inst.p_prime.bins_map) == 12
        and inst.ratio == F(3, 2)
        and inst.ratio == packing.weight()
        and inst.nash is not None
        and bool(inst.nash)
    )
    report(8, "price of anarchy pair", ok,
           "8 optimal bins vs 12 equilibrium bins, ratio 3/2, certified Nash")


def test_09_strong_price_of_anarchy_instance():
    t0 = time.perf_counter()
    family = build_separated_family(2, (2, 4), seed=0)
    packing = build_packing(family, F(1, 16))
    inst = spoa_instance(packing, coalition_cap=3)
    ok = (
        inst.ratio == packing.weight()
        and inst.strong is not None
        and bool(inst.strong)
        and inst.strong.max_coalition_size == 3
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(
        9,
        "strong price of anarchy pair",
        ok,
        f"ratio {inst.ratio} = weight, coalition-proof to size 3; "
        f"{elapsed:.1f}s",
    )


def test_10_dynamics_endpoints_and_sparse_bins():
    ok = True
    rng = random.Random(1)
    for trial in range(50):
        classes = [rng.choice([2, 3, 4]) for _ in range(rng.randint(2, 12))]
        items = tuple(
            GameItem(i, CubeClass(k, F(1, 9), 2)) for i, k in enumerate(classes)
        )
        cfg = GameConfig(
            2,
            items,
            {i: i for i in range(len(items))},
            {i: (F(0), F(0)) for i in range(len(items))},
        )
        result = best_response_dynamics(cfg, "random", seed=trial)
        ok = ok and result.status == "nash"
        audit = sparse_bin_report(result.config, nash_result=result.certificate)
        ok = ok and audit.conditioned and audit.sparse_count_ok
        ok = ok and audit.bin_bound_ok

    boundary_ok = (
        meir_moser_predicate([F(1, 4), F(1, 4)], F(1, 2), 2)
        and not meir_moser_predicate([F(1, 4), F(1, 4), F(1, 1000)], F(1, 2), 2)
        and meir_moser_predicate([F(1, 2), F(1, 2)], 1, 2)
        and not meir_moser_predicate([F(1, 2), F(1, 2), F(1, 1000)], 1, 2)
    )
    report(
        10,
        "settled states have at most one sparse bin",
        ok and boundary_ok,
        "50 seeded endpoints certified, volume boundary exact",
    )


def test_11_reproduce_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["--out-dir", str(a), "reproduce", "--seed", "0"])
    code_b = cli_main(["--out-dir", str(b), "reproduce", "--seed", "0"])
    ok = code_a == 0 and code_b == 0
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    ok = ok and names_a == names_b and len(names_a) >= 10
    for name in names_a:
        ok = ok and (a / name).read_bytes() == (b / name).read_bytes()
    row3 = json.loads((a / "summary.json").read_text())["rows"][0]
    ok = ok and row3["family"]["weight"] == "3/2"
    ok = ok and row3["adversary"]["lower_bound"] == 12
    ok = ok and row3["poa"]["ratio"] == "3/2"
    report(
        11,
        "reproduce bundles are bit-identical",
        ok,
        f"{len(names_a)} files, default dimensions, seed 0",
    )
