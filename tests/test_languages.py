"""Word languages: gapped/separated predicates, sampling, family builders."""

from __future__ import annotations

import inspect
import itertools
import random
import re
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubepack.languages import (
    ClassCounts,
    FamilyConstructionError,
    FSets,
    FSetsSamplingError,
    Language,
    SeparatedFamily,
    Word,
    are_separated,
    build_separated_family,
    core_alphabet,
    count_good_words,
    family_to_dict,
    is_bad_word,
    sample_f_sets,
    warmup_family,
)


def test_word_validation():
    w = Word((1, 2, 1), 2)
    assert w.d == 3
    with pytest.raises(ValueError):
        Word((1, 3), 2)
    with pytest.raises(ValueError):
        Word((0, 1), 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Word((True, 2.0), 2),
        lambda: Language(3, 2, f_coords=(1,), core_words=[(True,)]),
        lambda: Language(3, 2, f_coords=(1.7,), core_words=[(1,)]),
        lambda: Language(3, 2, f_coords=(1, 2), core_rules=[(1.0,)]),
        lambda: build_separated_family(4, (2.9, 3), 0),
        lambda: count_good_words(3, (1, 2.0), [(1,)]),
        lambda: count_good_words(3, (1, 2), [(True,)]),
    ],
    ids=["word-letter", "core-bool", "f_coords", "core_rules", "classes",
         "count-f_coords", "count-j_sets"],
)
def test_non_int_letters_and_indices_are_type_errors(build):
    # int() would truncate 2.9 to 2 and a float or bool letter would pass
    # the range check, so each builds a different, valid-looking object
    with pytest.raises(TypeError, match="expected int"):
        build()


def test_core_alphabet_skips_k_minus_one():
    assert core_alphabet(2) == (2,)
    assert core_alphabet(3) == (1, 3)
    assert core_alphabet(5) == (1, 2, 3, 5)


# -- Language shapes ---------------------------------------------------------


def test_product_language_count_and_enumeration():
    # Warm-up shape: core (3) pinned at coordinate 3, free letters in [2].
    lang = Language(3, 3, f_coords=(3,), core_words=((3,),))
    assert lang.count() == 4
    words = set(lang.iter_words())
    assert words == {(1, 1, 3), (1, 2, 3), (2, 1, 3), (2, 2, 3)}
    assert lang.contains((2, 1, 3))
    assert not lang.contains((2, 3, 3))
    assert not lang.contains((1, 1, 1))


@pytest.mark.parametrize("core", [{"core_words": ((3,),)}, {"core_rules": ((3,),)}],
                         ids=["core-words", "core-rules"])
def test_contains_is_false_on_letters_that_are_not_ints(core):
    # cast to int, each word is the member (1, 1, 3) or (1, 2, 3): a float
    # or bool letter passes the range checks, as a float core letter does
    # the core check
    lang = Language(3, 3, f_coords=(3,), **core)
    for word in [(1.5, 1, 3), (True, 2, 3), (1, 1, 3.0)]:
        assert lang.contains(tuple(map(int, word)))
        assert not lang.contains(word), word


def test_product_language_lex_order_is_deterministic():
    lang = Language(3, 3, f_coords=(3,), core_words=((3,),))
    assert list(lang.iter_words()) == [(1, 1, 3), (1, 2, 3), (2, 1, 3), (2, 2, 3)]


def test_product_language_rejects_core_letter_k_minus_one():
    with pytest.raises(ValueError):
        Language(3, 3, f_coords=(1,), core_words=((2,),))


def test_predicate_core_language():
    lang = Language(3, 4, f_coords=(1, 2), core_rules=((1, 2),))
    # cores over {1,3}^2 containing a 3: (1,3), (3,1), (3,3)
    assert lang.count() == 3 * 2 ** 2
    assert lang.contains((3, 1, 2, 1))
    assert not lang.contains((1, 1, 2, 1))
    with pytest.raises(ValueError):
        list(lang.iter_words())
    with pytest.raises(ValueError, match="rule-core"):
        lang.sample_word(random.Random(0))


def test_select_words_walks_past_a_sparse_descending_corner():
    # k=6 on F = [1..12], each of 5..12 a singleton rule: the 625 good
    # cores are any of 6,4,3,2,1 on 1..4 and 6 on 5..12, so a descending
    # scan of the 5^12 cores meets the first 200 of them far apart
    lang = Language(6, 12, f_coords=range(1, 13), core_rules=[(c,) for c in range(5, 13)])
    assert lang.core_size() == 625
    head = itertools.islice(itertools.product((6, 4, 3, 2, 1), repeat=4), 200)
    assert list(lang.select_words(200)) == [v + (6,) * 8 for v in head]
    assert len(list(lang.select_words(1000))) == 625


# -- gapped ------------------------------------------------------------------


def _obeys_the_gap(lang, word):
    """No letter k-1 on F and no letter k off F."""
    return all(a != (lang.k - 1 if c in lang.f_coords else lang.k)
               for c, a in enumerate(word, 1))


@st.composite
def gap_languages(draw):
    """An explicit-core or rule-core language at k in 2..6 and d <= 6."""
    d, k = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    f = tuple(sorted(draw(st.sets(st.integers(1, d)))))
    if draw(st.booleans()):
        letter = st.sampled_from(core_alphabet(k))
        cores = draw(st.lists(st.tuples(*[letter] * len(f)), max_size=6))
        return Language(k, d, f_coords=f, core_words=cores)
    pick = st.sets(st.sampled_from(f), min_size=1) if f else st.just(set())
    return Language(k, d, f_coords=f, core_rules=draw(st.lists(pick, max_size=3)))


@given(gap_languages(), st.integers(0, 40), st.data())
def test_every_language_is_gapped(lang, limit, data):
    # at most (k-1)^d = 15,625 words, so iter_words is listed in full
    words = list(lang.select_words(limit))
    if lang.core_words is not None:
        words += lang.iter_words()
    assert all(_obeys_the_gap(lang, w) for w in words)
    if words:
        # a member with one letter moved onto the gap is no member
        w = data.draw(st.sampled_from(words))
        c = data.draw(st.integers(1, lang.d))
        broken = list(w)
        broken[c - 1] = lang.k - 1 if c in lang.f_coords else lang.k
        assert lang.contains(w) and not lang.contains(broken)


# -- separated ---------------------------------------------------------------


def test_are_separated_witness_coordinate():
    # Coordinate 2 separates: w_2 = 1 < 2 and w'_2 = 3.
    l2 = Language(2, 2, f_coords=(1,), core_words=[(2,)])  # the one word (2, 1)
    l3 = Language(3, 2, f_coords=(1, 2), core_words=[(1, 3)])
    res = are_separated(l2, l3)
    assert res
    assert res.method == "product-core"


def test_are_separated_failure_has_witness_pair():
    l2 = Language(2, 2, f_coords=(1,), core_words=[(2,)])
    l3 = Language(3, 2, f_coords=(1, 2), core_words=[(3, 1)])  # no coordinate works
    res = are_separated(l2, l3)
    assert not res
    assert res.witness == ((2, 1), (3, 1))


def test_certify_fails_on_a_non_separated_pair():
    l2 = Language(2, 2, f_coords=(1,), core_words=[(2,)])
    l3 = Language(3, 2, f_coords=(1, 2), core_words=[(3, 1)])
    cert = SeparatedFamily(2, (2, 3), {2: l2, 3: l3}).certify()
    assert not cert
    assert cert.checks == ((2, 3, False),)


def test_are_separated_requires_increasing_classes():
    l2 = Language(2, 2, f_coords=(2,), core_words=[(2,)])  # the one word (1, 2)
    with pytest.raises(ValueError):
        are_separated(l2, l2)


def test_are_separated_product_core_matches_word_level_oracle():
    rng = random.Random(7)
    for _ in range(25):
        d = rng.randrange(2, 5)
        fk = tuple(sorted(rng.sample(range(1, d + 1), rng.randrange(1, d + 1))))
        fkp = tuple(sorted(rng.sample(range(1, d + 1), rng.randrange(1, d + 1))))
        k, kp = 3, 4
        cores_k = [
            v
            for v in itertools.product(core_alphabet(k), repeat=len(fk))
            if rng.random() < 0.6
        ]
        cores_kp = [
            v
            for v in itertools.product(core_alphabet(kp), repeat=len(fkp))
            if rng.random() < 0.4
        ]
        if not cores_k or not cores_kp:
            continue
        small = Language(k, d, f_coords=fk, core_words=cores_k)
        big = Language(kp, d, f_coords=fkp, core_words=cores_kp)
        got = bool(are_separated(small, big))
        oracle = all(
            any(a < k and b == kp for a, b in zip(w, wp))
            for w in small.iter_words()
            for wp in big.iter_words()
        )
        assert got == oracle, (d, fk, fkp)


def _brute_words(k, d, form, f_coords, payload):
    """Every word of a language, enumerated straight from its definition."""
    free_at = [c for c in range(1, d + 1) if c not in f_coords]
    out = set()
    for core in itertools.product(core_alphabet(k), repeat=len(f_coords)):
        at = dict(zip(f_coords, core))
        if form == "cores" and core not in payload:
            continue
        if form == "rules" and not all(any(at[i] == k for i in j) for j in payload):
            continue
        for free in itertools.product(range(1, k), repeat=len(free_at)):
            at.update(zip(free_at, free))
            out.add(tuple(at[c] for c in range(1, d + 1)))
    return out


@st.composite
def language_pairs(draw):
    """A class pair k < k' at d <= 4, each language given by explicit cores
    or a rule, plus the (form, F, payload) it came from.

    Two thirds of the draws follow the randomized construction: class k'
    must show k' on F' minus F (as a rule, or by writing k' into each core
    there).  That separates the pair when F' minus F is nonempty; three in
    four of these draws keep a coordinate of F' out of F to make it so,
    the rest force it empty.  In the other draws big cores may carry no
    letter k'.  Rule sets drawn on an empty F are empty.
    """
    d = draw(st.integers(1, 4))
    k = draw(st.integers(2, 3))
    kp = draw(st.integers(k + 1, 4))
    index_sets = st.lists(st.integers(1, d), unique=True).map(lambda xs: tuple(sorted(xs)))
    f_small, f_big = draw(index_sets), draw(index_sets)
    modes = ("free",) * 4 + ("separating",) * 6 + ("empty difference",) * 2
    mode = draw(st.sampled_from(modes))
    if mode == "separating":
        out = draw(st.integers(1, d))
        f_big = tuple(sorted(set(f_big) | {out}))
        f_small = tuple(c for c in f_small if c != out)
    elif mode == "empty difference":
        f_small = tuple(sorted(set(f_small) | set(f_big)))
    construction = mode != "free"
    must_show = frozenset(f_big) - frozenset(f_small)

    def language(cls, f, extra_rule):
        form = draw(st.sampled_from(("cores", "rules")))
        if form == "cores":
            letter = st.sampled_from(core_alphabet(cls))
            payload = draw(st.lists(st.tuples(*[letter] * len(f)), min_size=1, max_size=6))
            if extra_rule is not None:
                # show k' on the required set; with it empty, every core is bad
                pos = [f.index(i) for i in sorted(extra_rule)]
                payload = [
                    v[:p] + (cls,) + v[p + 1 :]
                    for v in payload
                    if pos
                    for p in [draw(st.sampled_from(pos))]
                ]
            return form, f, set(payload), Language(cls, d, f_coords=f, core_words=payload)
        if f:
            rule_set = st.lists(st.sampled_from(f), min_size=1, unique=True)
        else:
            rule_set = st.just([])
        payload = draw(st.lists(rule_set, max_size=3))
        if extra_rule is not None:
            payload.append(sorted(extra_rule))
        return form, f, payload, Language(cls, d, f_coords=f, core_rules=payload)

    small = language(k, f_small, None)
    big = language(kp, f_big, must_show if construction else None)
    return d, k, kp, small, big


@given(language_pairs())
def test_are_separated_matches_brute_force_word_pairs(case):
    d, k, kp, (s_form, s_f, s_def, small), (b_form, b_f, b_def, big) = case
    small_words = _brute_words(k, d, s_form, s_f, s_def)
    big_words = _brute_words(kp, d, b_form, b_f, b_def)
    for lang, words in ((small, small_words), (big, big_words)):
        assert lang.count() == len(words)
        assert all(lang.contains(w) for w in words)

    def separated(w, wp):
        return any(a < k and b == kp for a, b in zip(w, wp))

    res = are_separated(small, big)
    assert bool(res) == all(separated(w, wp) for w in small_words for wp in big_words)
    assert res.method == "product-core"
    if res:
        assert res.witness is None
        return
    w, wp = res.witness
    assert w in small_words and wp in big_words
    assert not separated(w, wp)
    if "rules" not in (s_form, b_form):
        first = next(
            (x, y)
            for x in small.iter_words()
            for y in big.iter_words()
            if not separated(x, y)
        )
        assert res.witness == first


# -- warm-up family -----------------------------------------------------------


def test_warmup_family_d3_frozen():
    fam = warmup_family(3)
    assert fam.classes == (2, 3)
    assert set(fam.languages[2].iter_words()) == {(1, 2, 1)}
    assert set(fam.languages[3].iter_words()) == {
        (1, 1, 3),
        (1, 2, 3),
        (2, 1, 3),
        (2, 2, 3),
    }
    assert fam.sizes() == {2: 1, 3: 4}
    assert fam.weight() == F(3, 2)


def test_warmup_family_d2_single_language():
    fam = warmup_family(2)
    assert fam.sizes() == {2: 1}
    assert set(fam.languages[2].iter_words()) == {(1, 2)}
    assert fam.weight() == 1


@pytest.mark.parametrize("d", range(2, 7))
def test_warmup_family_properties(d):
    fam = warmup_family(d)
    assert fam.sizes() == {k: (k - 1) ** (d - 1) for k in range(2, d + 1)}
    assert fam.weight() == sum(F(1, k - 1) for k in range(2, d + 1))
    cert = fam.certify()
    assert cert


def test_warmup_weight_d4_frozen():
    assert warmup_family(4).weight() == F(11, 6)


def test_class_counts_orders_classes_and_rejects_bad_counts():
    counts = ClassCounts(3, {3: 4, 2: 1})
    assert list(counts.counts) == [2, 3]
    assert counts.weight() == F(3, 2)
    assert counts.grid_bins(2) == {2: 2, 3: 1}
    with pytest.raises(ValueError, match="class must be >= 2"):
        ClassCounts(3, {1: 4})
    with pytest.raises(ValueError, match="count must be >= 0"):
        ClassCounts(3, {2: -5, 3: 8})


@given(st.integers(1, 40),
       st.dictionaries(st.integers(2, 60), st.integers(0, 10**6), max_size=40))
def test_class_counts_weight_is_the_sequential_sum(d, counts):
    # the balanced pairwise sum is exact, so it equals the one-term-at-a-time
    # sum, empty counts included
    model = ClassCounts(d, counts)
    sequential = F(0)
    for k, n in model.counts.items():
        sequential += F(n, (k - 1) ** d)
    weight = model.weight()
    assert type(weight) is F and weight == sequential


# -- F-set sampling -----------------------------------------------------------


def test_sample_f_sets_d2_forced_disjoint():
    fs = sample_f_sets(2, seed=0)
    assert fs.threshold == F(14, 26)
    assert set(map(frozenset, fs.sets.values())) == {frozenset({1}), frozenset({2})}


def test_sample_f_sets_records_rejections_at_d8():
    fs = sample_f_sets(8, seed=1)
    assert len(fs.sets) == 8
    assert all(len(s) == 4 for s in fs.sets.values())
    for a, b in itertools.combinations(fs.sets.values(), 2):
        assert len(a & b) <= 2
    assert fs.rejections > 0  # the mean overlap sits at the threshold


def test_sample_f_sets_infeasible_threshold_raises():
    # Two 2-subsets of [1..3] always intersect, threshold 21/26 < 1.
    with pytest.raises(FSetsSamplingError):
        sample_f_sets(3, seed=0, indices=(2, 3))


def test_sample_f_sets_deterministic_per_seed():
    a = sample_f_sets(8, seed=42)
    b = sample_f_sets(8, seed=42)
    assert a.sets == b.sets
    assert a.rejections == b.rejections


def test_fsets_validation():
    with pytest.raises(ValueError):
        FSets(4, F(28, 26), {2: frozenset({1}), 3: frozenset({2, 3})})
    with pytest.raises(ValueError):
        FSets(4, F(1, 2), {2: frozenset({1, 2}), 3: frozenset({1, 2})})


# -- bad words and counting ----------------------------------------------------


def test_is_bad_word_examples():
    assert is_bad_word((1, 1, 3), 3, j_set=(1, 2)) is True
    assert is_bad_word((3, 1, 1), 3, j_set=(1, 2)) is False
    assert is_bad_word((1, 1), 3, j_set=()) is True  # vacuous avoidance
    assert is_bad_word((1, 4), 4, j_set=(5,), f_coords=(3, 5)) is False
    with pytest.raises(ValueError):
        is_bad_word((1, 1), 3, j_set=(4,))


def brute_good_count(k, coords, j_sets):
    pos = {c: i for i, c in enumerate(coords)}
    n = 0
    for v in itertools.product(core_alphabet(k), repeat=len(coords)):
        if not any(all(v[pos[i]] != k for i in j) for j in j_sets):
            n += 1
    return n


def test_count_good_words_frozen_example():
    assert count_good_words(3, (1, 2, 3), [(1, 2)]) == 6
    assert count_good_words(2, (1, 2), []) == 1


def test_count_good_words_matches_brute_force():
    rng = random.Random(11)
    for _ in range(30):
        k = rng.randrange(3, 6)
        size = rng.randrange(1, 7)
        coords = tuple(sorted(rng.sample(range(1, 13), size)))
        j_sets = []
        for _ in range(rng.randrange(0, min(k - 1, 4))):
            j_sets.append(tuple(sorted(rng.sample(coords, rng.randrange(1, size + 1)))))
        assert count_good_words(k, coords, j_sets) == brute_good_count(
            k, coords, j_sets
        ), (k, coords, j_sets)


def test_count_good_words_keeps_unions_as_bitmasks():
    # 2^12 unions of up to 500 coordinates held as ints, not frozensets
    rng = random.Random(5)
    f = tuple(range(1, 501))
    j_sets = [frozenset(rng.sample(f, 250)) for _ in range(12)]
    tracemalloc.start()
    try:
        got = count_good_words(5, f, j_sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    want = 0
    for t in range(1 << 12):
        u = len(frozenset().union(*(j for i, j in enumerate(j_sets) if t >> i & 1)))
        want += (-1) ** bin(t).count("1") * 3 ** u * 4 ** (500 - u)
    assert got == want


def test_count_good_words_term_cap():
    with pytest.raises(ValueError):
        count_good_words(30, tuple(range(1, 11)), [(1,)] * 25)  # 2^25 terms


# -- randomized family ---------------------------------------------------------


def test_build_family_d4_enumerate():
    fam = build_separated_family(4, (2, 3), seed=5)
    assert fam.classes == (2, 3)
    cert = fam.certify()
    assert cert
    assert fam.languages[2].count() == 1
    assert all(_obeys_the_gap(lang, w) for lang in fam.languages.values()
               for w in lang.iter_words())
    # Every class-3 good core shows letter 3 on the difference set.
    lang = fam.languages[3]
    j = fam.fsets.sets[3] - fam.fsets.sets[2]
    for v in lang.core_words:
        assert not is_bad_word(v, 3, sorted(j), f_coords=lang.f_coords)


def test_build_family_power_of_two_toy_frozen():
    # Classes {2,4} at d=2: forced disjoint singleton index sets give
    # exactly one class-2 word and three class-4 words, weight 4/3.
    fam = build_separated_family(2, (2, 4), seed=0)
    assert fam.sizes() == {2: 1, 4: 3}
    assert fam.weight() == F(4, 3)
    assert fam.stats[4].core_good == 1
    assert fam.certify()


def test_build_family_enumerate_matches_implicit_counts():
    for seed in range(4):
        enum = build_separated_family(6, (2, 3, 4), seed=seed)
        impl = build_separated_family(
            6, (2, 3, 4), seed=seed, mode="implicit", fsets=enum.fsets
        )
        assert enum.sizes() == impl.sizes()
        for k in enum.classes:
            for w in enum.languages[k].iter_words():
                assert impl.languages[k].contains(w)


def test_build_family_implicit_certify_exact():
    fam = build_separated_family(8, (2, 3), seed=9, mode="implicit")
    cert = fam.certify()
    assert cert
    assert cert.checks == ((2, 3, True),)


def test_build_family_weight_is_good_density_times_classes():
    fam = build_separated_family(6, (2, 3), seed=2)
    # |L_k| = good_k * (k-1)^(d - |F_k|) so weight = sum good_k/(k-1)^|F_k|.
    expected = sum(
        F(fam.stats[k].core_good, (k - 1) ** fam.stats[k].f_size) for k in fam.classes
    )
    assert fam.weight() == expected


def test_build_family_enumerate_cap_refuses(monkeypatch):
    monkeypatch.setattr("cubepack.languages.ENUMERATE_CAP", 10)
    with pytest.raises(ValueError, match="exceed enumerate cap 10"):
        build_separated_family(8, (2, 5), seed=0)


def test_build_family_refuses_before_counting_any_class(monkeypatch):
    # at d=1000 class 23 has 21 smaller classes, so 2^21 terms: the term
    # cap refuses it before classes 2..22 are counted
    count, calls = count_good_words, []

    def recorded(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr("cubepack.languages.count_good_words", recorded)
    with pytest.raises(ValueError, match=r"2\^21 inclusion-exclusion terms exceed cap 1048576"):
        build_separated_family(1000, range(2, 35), 0, mode="implicit")
    assert not calls


def test_build_family_reports_empty_difference_set():
    fs = FSets(4, F(3), {2: frozenset({1, 2}), 3: frozenset({1, 2})})
    with pytest.raises(FamilyConstructionError):
        build_separated_family(4, (2, 3), seed=0, fsets=fs)


@st.composite
def rule_languages(draw):
    """A rule language at d <= 8, k <= 6, with its F and rule sets.

    F is any subset of [1..d] with at most 4,096 cores in all, empty and
    full included.  Up to three rule sets are drawn inside F, half the
    time with F itself among them; on an empty F they are empty."""
    d, k = draw(st.integers(1, 8)), draw(st.integers(2, 6))
    most = max(m for m in range(d + 1) if (k - 1) ** m <= 4096)
    f = tuple(sorted(draw(st.sets(st.integers(1, d), max_size=most))))
    pick = st.sets(st.sampled_from(f), min_size=1) if f else st.just(set())
    rules = [sorted(r) for r in draw(st.lists(pick, max_size=3))]
    if draw(st.booleans()):
        rules.append(list(f))
    return d, k, f, rules


@given(rule_languages(), st.integers(0, 40))
def test_listed_good_cores_equal_a_filter_of_every_core(case, n):
    d, k, f, rules = case
    lang = Language(k, d, f_coords=f, core_rules=rules)
    pos = {c: i for i, c in enumerate(f)}

    def good_in(letters):
        return [v for v in itertools.product(letters, repeat=len(f))
                if all(any(v[pos[c]] == k for c in r) for r in rules)]

    # the walk, in either letter order, and budgeted selection off it
    for letters in (core_alphabet(k), core_alphabet(k)[::-1]):
        assert list(lang._good_cores(letters)) == good_in(letters)
    assert list(lang.select_words(n)) == [
        tuple(v[pos[c]] if c in pos else 1 for c in range(1, d + 1))
        for v in good_in(core_alphabet(k)[::-1])[:n]
    ]
    lang._list_good_cores()
    good = tuple(good_in(core_alphabet(k)))
    assert lang.core_words == good
    assert lang.core_rules is None and lang.core_size() == count_good_words(k, f, rules)
    assert all(lang.contains(w) for w in itertools.islice(lang.iter_words(), 50))
    # letter masks: a scan of the cores in order, each mask with its first
    # core and every free letter 1, as the public constructor's language has
    scan = {}
    for v in good:
        mask = sum(1 << c for c, a in zip(f, v) if a == k)
        free = iter((1,) * (d - len(f)))
        scan.setdefault(mask, tuple(v[pos[c]] if c in pos else next(free)
                                    for c in range(1, d + 1)))
    assert list(lang._letter_masks.items()) == list(scan.items())
    built = Language(k, d, f_coords=f, core_words=good)

    def state(language):  # its fields, the lazy _positions cache aside
        return {name: v for name, v in vars(language).items() if name != "_positions"}

    assert state(lang) == state(built) | {"_letter_masks": built._letter_masks}


@st.composite
def product_languages(draw):
    """A product language with explicit cores: d <= 5, k <= 5, F empty,
    full or any subset, and up to five cores."""
    d, k = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    f = draw(st.sampled_from([(), tuple(range(1, d + 1)),
                              tuple(sorted(draw(st.sets(st.integers(1, d)))))]))
    letter = st.sampled_from(core_alphabet(k))
    cores = draw(st.lists(st.tuples(*[letter] * len(f)), max_size=5))
    return Language(k, d, f_coords=f, core_words=cores)


@given(product_languages())
def test_iter_words_equals_assembled_cores_and_free_letters(lang):
    k, d, f = lang.k, lang.d, lang.f_coords
    words = []
    for core in lang.core_words:
        for free in itertools.product(range(1, k), repeat=d - len(f)):
            at = dict(zip(f, core))
            letters = iter(free)
            words.append(tuple(at[c] if c in at else next(letters)
                               for c in range(1, d + 1)))
    assert list(lang.iter_words()) == words


@given(st.one_of(product_languages(), rule_languages().map(
    lambda c: Language(c[1], c[0], f_coords=c[2], core_rules=c[3]))),
    st.one_of(st.none(), st.integers(0, 40)))
def test_selectable_counts_what_select_words_yields(lang, n):
    # build_packing refuses past its cap on these counts, selecting nothing
    if n is None and lang.core_words is None:
        n = 40  # a rule lists no words without a limit
    assert lang.selectable(n) == len(list(lang.select_words(n)))


def test_enumerate_mode_lists_cores_per_mask_in_one_language_per_class(monkeypatch):
    # enumerate mode lists the cores per letter mask and never walks them
    calls = {"init": 0, "good_cores": 0}
    init, good_cores = Language.__init__, Language._good_cores

    def counted_init(self, *args, **kw):
        calls["init"] += 1
        init(self, *args, **kw)

    def counted_good_cores(self, letters):
        calls["good_cores"] += 1
        return good_cores(self, letters)

    monkeypatch.setattr(Language, "__init__", counted_init)
    monkeypatch.setattr(Language, "_good_cores", counted_good_cores)
    fam = build_separated_family(14, (2, 3, 4, 5), seed=3)
    assert calls == {"init": 4, "good_cores": 0}
    assert all(fam.languages[k].core_words for k in fam.classes)


def test_family_separation_word_level_oracle():
    # Full word-level pairwise check on a small build, independent of the
    # product-core reduction used by certify().
    fam = build_separated_family(5, (2, 3), seed=13)
    words2 = list(fam.languages[2].iter_words())
    words3 = list(fam.languages[3].iter_words())
    for w in words2:
        for wp in words3:
            assert any(a < 2 and b == 3 for a, b in zip(w, wp)), (w, wp)


def _rebuilt(doc):
    """The family a family file describes: an implicit family rebuilds
    from its seed and F-sets, an enumerated one from its listed words."""
    d, classes = doc["d"], tuple(doc["classes"])
    sets = {int(k): frozenset(v) for k, v in doc["fsets"].items()}
    fsets = FSets(d, F(doc["threshold"]), sets)
    if doc["mode"] == "implicit":
        return build_separated_family(
            d, classes, doc["seed"], mode="implicit", fsets=fsets
        )
    langs = {
        entry["k"]: Language(
            entry["k"], d, f_coords=tuple(entry["F"]),
            core_words=tuple(tuple(v) for v in entry["core_words"]),
        )
        for entry in doc["languages"]
    }
    return SeparatedFamily(d, classes, langs, fsets, doc["seed"], doc["mode"])


def test_family_json_round_trip_enumerate():
    fam = build_separated_family(4, (2, 3), seed=5)
    doc = family_to_dict(fam)
    again = _rebuilt(doc)
    assert again.sizes() == fam.sizes()
    assert set(again.languages[3].iter_words()) == set(fam.languages[3].iter_words())
    assert family_to_dict(again) == doc


def test_family_json_round_trip_implicit():
    fam = build_separated_family(6, (2, 3), seed=3, mode="implicit")
    doc = family_to_dict(fam)
    again = _rebuilt(doc)
    assert again.sizes() == fam.sizes()
    assert again.mode == "implicit"
    assert family_to_dict(again) == doc


def test_reloaded_implicit_family_certifies():
    fam = build_separated_family(10, (2, 3, 4), seed=3, mode="implicit")
    again = _rebuilt(family_to_dict(fam))
    cert = again.certify()
    assert cert
    for k in fam.classes:
        assert again.languages[k].core_rules == fam.languages[k].core_rules


def test_separation_has_no_sampled_path():
    # Separation is decided exactly: no sampling parameter and no sampled
    # verdict may come back into the package.
    for fn in (are_separated, SeparatedFamily.certify):
        params = inspect.signature(fn).parameters
        assert "rng" not in params and "samples" not in params, fn.__qualname__
    src = Path(__file__).resolve().parent.parent / "src" / "cubepack"
    for path in sorted(src.rglob("*.py")):
        assert not re.search(r"""["']sampled["']""", path.read_text()), path.name


# -- argument refusals and give-up paths -----------------------------------------


def _lang(**kw):
    return Language(3, 2, f_coords=(1,), **kw)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: Word((1,), 1), ValueError, "class index k must be >= 2"),
        (lambda: Language(1, 2, f_coords=(), core_words=()), ValueError,
         "need k >= 2 and d >= 1"),
        (lambda: Language(3, 2, f_coords=(1, 1), core_words=()), ValueError,
         "duplicate indices in f_coords"),
        (lambda: Language(3, 2, f_coords=(3,), core_words=()), ValueError,
         "f_coords (3,) outside [1..2]"),
        (lambda: _lang(), ValueError, "exactly one of core_words and core_rules"),
        (lambda: _lang(core_words=((1, 1),)), ValueError, "does not match |F|=1"),
        (lambda: list(_lang(core_words=((3,),)).select_words(-1)), ValueError,
         "limit must be >= 0"),
        (lambda: _lang(core_words=()).sample_word(random.Random(0)), ValueError,
         "cannot sample from an empty language"),
        (lambda: are_separated(Language(2, 2, f_coords=(2,), core_words=((2,),)),
                               Language(3, 3, f_coords=(3,), core_words=((3,),))),
         ValueError, "dimension mismatch"),
        (lambda: FSets(2, F(1), {2: frozenset({3})}), ValueError, "F_2 leaves [1..2]"),
        (lambda: sample_f_sets(0, 0), ValueError, "need d >= 1"),
        (lambda: sample_f_sets(4, 0, indices=(2, 2)), ValueError, "duplicate indices"),
        (lambda: is_bad_word((1, 2), 3, (1,), f_coords=(1,)), ValueError,
         "f_coords must align with v"),
        (lambda: count_good_words(3, (1,), [(2,)]), ValueError,
         "difference set [2] leaves F [1]"),
        (lambda: warmup_family(1), ValueError, "need d >= 2"),
        (lambda: build_separated_family(4, (), 0), ValueError, "need at least one class"),
        (lambda: build_separated_family(4, (1, 2), 0), ValueError,
         "classes must be >= 2, got 1"),
        (lambda: build_separated_family(4, (2,), 0, mode="lazy"), ValueError,
         "unknown mode 'lazy'"),
        (lambda: build_separated_family(4, (2, 3), 0,
                                        fsets=sample_f_sets(4, 0, indices=(2,))),
         ValueError, "fsets lacks entries for classes [3]"),
    ],
    ids=["word-k1", "language-k1", "language-f-twice", "language-f-outside",
         "language-no-core", "language-core-length", "select-negative",
         "sample-empty", "separated-mixed-d", "fsets-outside", "fsets-d0",
         "fsets-indices-twice", "bad-word-misaligned", "good-words-outside-f",
         "warmup-d1", "family-no-class", "family-class-1", "family-mode",
         "family-fsets-missing"],
)
def test_languages_refuse_hostile_arguments(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_sample_f_sets_gives_up_past_the_draw_cap(monkeypatch):
    # one draw places F_2; the next draw is past the cap, so F_3 is stuck
    monkeypatch.setattr("cubepack.languages.F_SETS_DRAW_CAP", 1)
    with pytest.raises(FSetsSamplingError, match="gave up after 2 draws"):
        sample_f_sets(4, 0, indices=(2, 3))


def test_sample_word_draws_a_member():
    rng = random.Random(0)
    lang = Language(4, 5, f_coords=(2, 4), core_words=((4, 1), (2, 4)))
    for _ in range(20):
        assert lang.contains(lang.sample_word(rng))
