"""Base coordinates, word placement, packing builders, report drivers."""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubepack import geometry
from cubepack.geometry import (
    Bin,
    BinVerification,
    CubeClass,
    PlacedCube,
    format_rational,
    occupied_volume,
    verify_bin,
)
from cubepack.languages import Language, Word, build_separated_family, warmup_family
from cubepack.packing import (
    MATERIALIZE_CAP,
    base_coordinate,
    build_homogeneous,
    build_packing,
    dense_packing_report,
    end_coordinate,
    gap_inequality_holds,
    packing_from_dict,
    place_word,
    power_of_two_packing_report,
    power_of_two_s_prime,
)
import test_geometry


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


def test_the_packing_hypothesis_forces_every_gap_inequality():
    # the inequality only gets harder as eps grows, so eps = 1/k_max^2, the
    # largest slack the hypothesis allows, decides every eps it allows
    for k_max in range(3, 61):
        eps = F(1, k_max * k_max)
        for k, kp in itertools.combinations(range(2, k_max + 1), 2):
            assert gap_inequality_holds(k, kp, eps), (k, kp, k_max)
    # so build_packing needs no class order: classes out of order build
    # the sorted family's cubes
    unsorted = build_packing(replace(warmup_family(4), classes=(2, 4, 3)), F(1, 16))
    assert verify_bin(unsorted.bin)
    assert set(unsorted.bin.cubes) == set(build_packing(warmup_family(4), F(1, 16)).bin.cubes)


def test_place_word_frozen_example():
    cube = place_word(Word((2, 3), 3), F(1, 9))
    assert cube.base == (F(10, 27), F(17, 27))
    assert cube.cls.side == F(10, 27)
    assert verify_bin(Bin(2, (cube,))).bad_cube is None


def test_builders_make_the_cubes_the_checked_constructor_makes():
    # the builders skip PlacedCube's checks on bases from their own tables;
    # their cubes must equal the checked ones, with Fraction coordinates,
    # while an outside base is still coerced or rejected
    eps = F(1, 9)
    built = build_homogeneous(3, 2, eps).bin.cubes + (place_word(Word((2, 3), 3), eps),)
    for cube in built:
        assert cube == PlacedCube(cube.cls, tuple(map(format_rational, cube.base)))
        assert all(type(x) is F for x in cube.base) and len(cube.base) == 2
    cls = CubeClass(3, eps, 2)
    with pytest.raises(TypeError):
        PlacedCube(cls, (0.5, F(0)))
    with pytest.raises(ValueError):
        PlacedCube(cls, (F(0),))


def test_place_word_matches_interval_structure():
    eps = F(1, 16)
    w = Word((1, 4, 2), 4)
    cube = place_word(w, eps)
    for i, j in enumerate(w.letters):
        extent = (cube.base[i], cube.base[i] + cube.cls.side)
        assert extent == (base_coordinate(4, j, eps), end_coordinate(4, j, eps))


@given(st.data())
def test_class_tables_place_like_base_coordinate(data):
    # every word of a class picks its bases from one table per class;
    # each cube must be the one base_coordinate gives letter by letter
    d = data.draw(st.integers(1, 4))
    classes = data.draw(st.sets(st.integers(2, 8), min_size=1, max_size=3))
    bound = F(1, max(classes) - 1)
    eps = data.draw(st.fractions(0, bound, max_denominator=60).filter(lambda e: 0 < e < bound))
    words = {
        k: data.draw(st.lists(st.tuples(*[st.integers(1, k)] * d), min_size=1, max_size=5))
        for k in sorted(classes)
    }
    doc = {"d": d, "epsilon": format_rational(eps),
           "words": {str(k): [list(w) for w in ws] for k, ws in words.items()}}
    placed = packing_from_dict(doc, verify=False).bin.cubes
    expected = [
        PlacedCube(CubeClass(k, eps, d), tuple(base_coordinate(k, j, eps) for j in w))
        for k, ws in words.items() for w in ws
    ]
    assert list(placed) == expected
    assert [place_word(Word(w, k), eps) for k, ws in words.items() for w in ws] == expected


@st.composite
def typed_packings(draw):
    """Unverified typed packings: d in 1..4, one to three classes from 2..6
    and one to six words per class over all k letters, so that words repeat,
    the overlapping intervals k-1 and k meet on some axes, and cubes of two
    classes overlap, as the words form no separated family; epsilon is
    1/k_max^2, 1/50 or 1/(7 k_max), so sides and bases mix denominators."""
    d = draw(st.integers(1, 4))
    classes = sorted(draw(st.sets(st.integers(2, 6), min_size=1, max_size=3)))
    k_max = classes[-1]
    eps = draw(st.sampled_from([F(1, k_max * k_max), F(1, 50), F(1, 7 * k_max)]))
    doc = {"d": d, "epsilon": format_rational(eps), "words": {
        str(k): draw(st.lists(st.lists(st.integers(1, k), min_size=d, max_size=d),
                              min_size=1, max_size=6))
        for k in classes}}
    return packing_from_dict(doc, verify=False)


@given(typed_packings())
def test_typed_packings_verify_on_their_letters_as_their_plain_bins(packing):
    # the letter path reports what the generic kernel reports on the same
    # cubes, and both agree with the per-cube and pairwise oracles
    b = packing.bin
    plain = Bin(b.d, b.cubes)
    assert b._factors is not None and plain._factors is None
    assert verify_bin(b) == verify_bin(plain)
    test_geometry.test_verify_bin_matches_per_cube_and_pairwise_oracles.hypothesis.inner_test(b)


def test_a_built_packing_is_certified_on_its_letters(monkeypatch):
    # build_packing verifies through its words: no interval is keyed per cube
    monkeypatch.setattr(geometry, "_cube_keys", None)
    packing = build_packing(warmup_family(4), F(1, 16))
    assert verify_bin(packing.bin) == BinVerification(1 + 8 + 27)


def test_letter_factors_do_not_survive_a_change_of_cubes():
    b = build_packing(warmup_family(3), F(1, 9)).bin
    grown = b.with_cube(b.cubes[-1])  # the copy overlaps the last cube
    assert grown._factors is None
    assert verify_bin(grown).offending_pair == (len(b) - 1, len(b))
    swapped = replace(b, cubes=b.cubes[:1] * 2)
    assert swapped._factors is None
    assert verify_bin(swapped).offending_pair == (0, 1)
    assert b == Bin(3, b.cubes) and hash(b) == hash(Bin(3, b.cubes))


@pytest.mark.parametrize("word", [(1, 2, 1), (1,)])
def test_a_word_of_the_wrong_length_is_refused(word):
    doc = {"d": 2, "epsilon": "1/9", "words": {"2": [[1, 1]], "3": [list(word)]}}
    with pytest.raises(ValueError, match=rf"class 3 word \[{', '.join(map(str, word))}\]"):
        packing_from_dict(doc)


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
    assert max(packing.nu) == 3
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


def test_build_packing_reads_at_most_one_word_past_the_cap(monkeypatch):
    # warm-up d=4 holds 1 + 8 + 27 words; with room for 10 the refusal
    # reads the yield off the class counts and reads no word at all
    monkeypatch.setattr("cubepack.packing.MATERIALIZE_CAP", 10)
    select, read = Language.select_words, []

    def counted(self, limit=None):
        for word in select(self, limit):
            read.append(word)
            yield word

    monkeypatch.setattr(Language, "select_words", counted)
    with pytest.raises(ValueError, match="materializing more than 10 cubes"):
        build_packing(warmup_family(4), F(1, 16))
    assert read == []


def test_build_packing_refuses_past_the_cap_before_selecting_a_word(monkeypatch):
    # warm-up d=2000 holds 2^1999 class-3 words: the refusal reads each
    # class's yield off its counts and selects no word
    def refuse(self, limit=None):
        raise AssertionError("build_packing selected a word past its cap")

    monkeypatch.setattr(Language, "select_words", refuse)
    with pytest.raises(ValueError, match=f"materializing more than {MATERIALIZE_CAP} cubes"):
        build_packing(warmup_family(2000), F(1, 2000 ** 2))


def test_build_packing_implicit_budgeted_is_deterministic():
    fam = build_separated_family(6, (2, 3), seed=4, mode="implicit")
    p1 = build_packing(fam, F(1, 9), per_class_cap=5)
    p2 = build_packing(fam, F(1, 9), per_class_cap=5)
    assert p1.words == p2.words
    assert verify_bin(p1.bin)
    for k in fam.classes:
        for letters in p1.words[k]:
            assert fam.languages[k].contains(letters)


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


def test_dense_report_falls_back_to_warmup_after_a_refused_family(monkeypatch):
    # a term cap of 1 refuses class 3 of the randomized family (one
    # difference set, 2^1 terms) before any class is counted
    calls = []
    monkeypatch.setattr("cubepack.languages.GOOD_WORDS_TERM_CAP", 1)
    monkeypatch.setattr("cubepack.languages.count_good_words", lambda *a: calls.append(a))
    rep = dense_packing_report(40, per_class_cap=2)
    assert rep.family_mode == "warmup-fallback"
    assert rep.fallback_reason == "2^1 inclusion-exclusion terms exceed cap 1"
    assert rep.s_effective == 40
    assert rep.epsilon == F(1, 1600)
    assert len(rep.packing.bin.cubes) == 77
    assert not calls


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
    assert verify_bin(rep.packing.bin)
    assert rep.s_prime_overridden


def test_power_of_two_report_large_d_implicit():
    rep = power_of_two_packing_report(512, per_class_cap=4)
    assert rep.status == "built"
    assert rep.classes == (2, 4, 8)
    assert rep.epsilon == F(1, 64)
    assert verify_bin(rep.packing.bin)


# -- argument refusals ---------------------------------------------------------


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: base_coordinate(1, 1, F(1, 2)), ValueError, "need k >= 2, got 1"),
        (lambda: build_homogeneous(1, 2, F(1, 2)), ValueError, "need k >= 2, got 1"),
        (lambda: power_of_two_s_prime(4, "10"), ValueError,
         "log_base must be 'natural' or '2', got '10'"),
        (lambda: dense_packing_report(1), ValueError, "need d >= 2, got 1"),
        (lambda: power_of_two_s_prime(1), ValueError, "need d >= 2, got 1"),
    ],
    ids=["base-k1", "grid-k1", "log-base", "dense-d1", "power-of-two-d1"],
)
def test_packing_refuses_hostile_arguments(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
