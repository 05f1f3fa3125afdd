"""Base coordinates, word placement, packing builders, report drivers."""

from __future__ import annotations

import itertools
from fractions import Fraction as F

import pytest

from cubepack.geometry import Bin, occupied_volume, verify_bin
from cubepack.languages import Word, build_separated_family, warmup_family
from cubepack.packing import (
    base_coordinate,
    build_homogeneous,
    build_packing,
    dense_packing_report,
    end_coordinate,
    gap_inequality_holds,
    place_word,
    power_of_two_packing_report,
    power_of_two_s_prime,
)


def test_base_coordinate_frozen_values():
    eps = F(1, 9)
    assert base_coordinate(3, 1, eps) == 0
    assert base_coordinate(3, 2, eps) == F(10, 27)
    assert base_coordinate(3, 3, eps) == F(17, 27)
    assert end_coordinate(3, 3, eps) == 1
    assert base_coordinate(2, 2, eps) == F(4, 9)
    assert end_coordinate(2, 1, eps) == F(5, 9)


def test_base_coordinate_preconditions():
    with pytest.raises(ValueError):
        base_coordinate(3, 0, F(1, 9))
    with pytest.raises(ValueError):
        base_coordinate(3, 4, F(1, 9))
    with pytest.raises(ValueError):
        base_coordinate(3, 1, F(0))
    with pytest.raises(ValueError):
        base_coordinate(3, 1, F(1, 2))  # eps must stay below 1/(k-1)


@pytest.mark.parametrize("k", range(2, 13))
@pytest.mark.parametrize("eps", [F(1, 144), F(1, 200)])
def test_interval_chain_ordering(k, eps):
    """0 = x(1) < y(1) = x(2) < ... < y(k-2) = x(k-1) < x(k) < y(k-1) < y(k) = 1."""
    xs = {j: base_coordinate(k, j, eps) for j in range(1, k + 1)}
    ys = {j: end_coordinate(k, j, eps) for j in range(1, k + 1)}
    assert xs[1] == 0
    assert ys[k] == 1
    for j in range(1, k - 1):
        assert ys[j] == xs[j + 1]
    if k > 2:
        assert xs[k - 1] < xs[k] < ys[k - 1] < ys[k]
    else:
        assert xs[k] < ys[k]


def test_gap_inequality_examples():
    assert gap_inequality_holds(2, 3, F(1, 9))
    assert not gap_inequality_holds(2, 3, F(1, 4))  # too much slack
    with pytest.raises(ValueError):
        gap_inequality_holds(3, 3, F(1, 9))


def test_place_word_frozen_example():
    cube = place_word(Word((2, 3), 3), F(1, 9))
    assert cube.base == (F(10, 27), F(17, 27))
    assert cube.cls.side == F(10, 27)
    assert verify_bin(Bin(2, (cube,))).containment_ok


def test_place_word_matches_interval_structure():
    eps = F(1, 16)
    w = Word((1, 4, 2), 4)
    cube = place_word(w, eps)
    for i, j in enumerate(w.letters):
        extent = (cube.base[i], cube.base[i] + cube.cls.side)
        assert extent == (base_coordinate(4, j, eps), end_coordinate(4, j, eps))


def test_build_homogeneous_counts_and_boundary():
    h = build_homogeneous(2, 2, F(1, 3))
    assert h.cube_count == 1
    assert len(h.bin.cubes) == 1
    assert h.bin.cubes[0].cls.side == F(2, 3)

    # Boundary slack: cubes tile the bin edge to edge.
    h3 = build_homogeneous(3, 2, F(1, 2))
    assert len(h3.bin.cubes) == 4
    assert occupied_volume(h3.bin) == 1
    assert verify_bin(h3.bin)

    with pytest.raises(ValueError):
        build_homogeneous(3, 2, F(2, 3))
    with pytest.raises(ValueError):
        build_homogeneous(3, 2, F(0))


@pytest.mark.parametrize("k,d", [(2, 3), (3, 3), (4, 2), (5, 2)])
def test_build_homogeneous_grid_sizes(k, d):
    h = build_homogeneous(k, d, F(1, k - 1))
    assert len(h.bin.cubes) == (k - 1) ** d
    assert verify_bin(h.bin)


def test_build_packing_warmup_d3_frozen():
    packing = build_packing(warmup_family(3), F(1, 9))
    assert packing.nu == {2: 1, 3: 4}
    assert packing.classes == (2, 3)
    assert packing.k_max == 3
    assert packing.weight() == F(3, 2)
    assert packing.full_counts.weight() == F(3, 2)
    assert len(packing.bin.cubes) == 5
    assert verify_bin(packing.bin)
    assert packing.occupied() == F(7375, 19683)


def test_build_packing_epsilon_preconditions():
    fam = warmup_family(3)
    with pytest.raises(ValueError):
        build_packing(fam, F(1, 8))  # above 1/k_max^2
    with pytest.raises(ValueError):
        build_packing(fam, F(0))


def test_build_packing_power_of_two_toy():
    fam = build_separated_family(2, (2, 4), seed=0)
    packing = build_packing(fam, F(1, 16))
    assert packing.nu == {2: 1, 4: 3}
    assert packing.weight() == F(4, 3)
    assert verify_bin(packing.bin)


def test_build_packing_per_class_cap():
    packing = build_packing(warmup_family(4), F(1, 16), per_class_cap=2)
    assert packing.nu == {2: 1, 3: 2, 4: 2}
    assert packing.family_sizes == {2: 1, 3: 8, 4: 27}
    assert packing.weight() == 1 + F(2, 16) + F(2, 81)
    assert packing.full_counts.weight() == F(11, 6)
    assert verify_bin(packing.bin)


def test_build_packing_implicit_budgeted_is_deterministic():
    fam = build_separated_family(6, (2, 3), seed=4, mode="implicit")
    p1 = build_packing(fam, F(1, 9), per_class_cap=5)
    p2 = build_packing(fam, F(1, 9), per_class_cap=5)
    assert p1.words == p2.words
    assert verify_bin(p1.bin)
    for k in fam.classes:
        for letters in p1.words[k]:
            assert fam.language(k).contains(letters)


def test_nu_respects_gapped_cap():
    for d in range(2, 6):
        packing = build_packing(warmup_family(d), F(1, d * d))
        for k, n in packing.nu.items():
            assert n <= (k - 1) ** d


def test_dense_report_small_d_falls_back_to_warmup():
    rep = dense_packing_report(3)
    assert rep.s_formula == 1
    assert rep.family_mode == "warmup-fallback"
    assert rep.s_effective == 3
    assert rep.epsilon == F(1, 9)
    assert rep.weight_full == F(3, 2)
    assert rep.fallback_reason is not None
    assert not rep.asserted


def test_dense_report_randomized_at_d30():
    rep = dense_packing_report(30, seed=1)
    assert rep.s_formula == 2
    assert rep.family_mode == "randomized"
    assert rep.epsilon == F(1, 4)
    assert rep.weight_full == 1  # single class {2} has the lone all-2 core
    assert rep.meets_fraction  # 1 >= (10/11)(2-1)
    assert verify_bin(rep.packing.bin)


def test_dense_report_implicit_at_d40():
    rep = dense_packing_report(40, seed=2, per_class_cap=20)
    assert rep.s_formula == 3
    assert rep.family_mode == "randomized"
    assert rep.packing.nu[2] == 1
    assert 1 <= rep.packing.nu[3] <= 20
    assert verify_bin(rep.packing.bin)
    # Full weight counts every good word even though few are materialized.
    assert rep.weight_full > 1


def test_power_of_two_s_prime_conventions():
    assert power_of_two_s_prime(64, "natural") == 1
    assert power_of_two_s_prime(64, "2") == 1
    assert power_of_two_s_prime(512, "natural") == 4
    assert power_of_two_s_prime(512, "2") == 3


def test_power_of_two_report_degenerate_at_d64():
    rep = power_of_two_packing_report(64)
    assert rep.status == "degenerate"
    assert rep.s_prime == 1
    assert rep.packing is None


def test_power_of_two_report_with_override():
    rep = power_of_two_packing_report(16, s_prime=3, per_class_cap=10)
    assert rep.status == "built"
    assert rep.classes == (2, 4)
    assert rep.epsilon == F(1, 16)
    assert rep.class_count_ok
    assert verify_bin(rep.packing.bin)
    assert rep.s_prime_overridden


def test_power_of_two_report_large_d_implicit():
    rep = power_of_two_packing_report(512, per_class_cap=4)
    assert rep.status == "built"
    assert rep.classes == (2, 4, 8)
    assert rep.epsilon == F(1, 64)
    assert rep.class_count_ok
    assert verify_bin(rep.packing.bin)
