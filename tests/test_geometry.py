"""Exact geometry: intervals, cubes, bin verification, JSON round-trip."""

from __future__ import annotations

import gc
import itertools
import operator
import pickle
import tracemalloc
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
    as_rational,
    cubes_disjoint,
    find_free_position,
    find_joint_positions,
    format_rational,
    occupied_volume,
    verify_bin,
)
from cubepack.packing import build_homogeneous


def test_as_rational_accepts_int_str_fraction():
    assert as_rational(3) == F(3)
    assert as_rational("10/27") == F(10, 27)
    assert as_rational(F(1, 9)) == F(1, 9)


def test_as_rational_rejects_float():
    with pytest.raises(TypeError):
        as_rational(0.1)
    with pytest.raises(TypeError):
        as_rational(True)
    with pytest.raises(ValueError, match="1/0"):
        as_rational("1/0")


def test_format_rational_round_trip():
    for q in [F(0), F(1), F(10, 27), F(-3, 7), F(17, 64)]:
        assert as_rational(format_rational(q)) == q


def intervals_disjoint(a, b) -> bool:
    """Open intervals (lo, hi) are disjoint iff one ends where or before
    the other begins."""
    return a[1] <= b[0] or b[1] <= a[0]


# Frozen interval endpoints for k=3, eps=1/9, computed by hand from the
# base-coordinate formulas: x(j) = (j-1)(1+eps)/3 for j<3, x(3) = 1-(1+eps)/3.
I3_2 = (F(10, 27), F(20, 27))
I3_3 = (F(17, 27), F(27, 27))
I2_1 = (F(0), F(5, 9))


def test_intervals_disjoint_examples():
    # The two highest same-class intervals overlap on (17/27, 20/27).
    assert not intervals_disjoint(I3_2, I3_3)
    # Low class-2 interval vs top class-3 interval: 15/27 < 17/27.
    assert intervals_disjoint(I2_1, I3_3)
    # Touching endpoints are disjoint for open intervals.
    assert intervals_disjoint((F(0), F(1, 2)), (F(1, 2), F(1)))


def test_cube_class_side_and_validation():
    assert CubeClass(3, F(1, 9), 2).side == F(10, 27)
    assert CubeClass(2, F(1), 2).side == F(1)  # eps = k-1 boundary
    with pytest.raises(ValueError):
        CubeClass(1, F(0), 2)
    with pytest.raises(ValueError):
        CubeClass(2, F(3, 2), 2)  # side would exceed 1
    with pytest.raises(ValueError):
        CubeClass(2, F(-1, 4), 2)


def test_cube_volume_frozen_values():
    assert CubeClass(2, F(0), 3).volume == F(1, 8)
    assert CubeClass(2, F(1, 3), 2).volume == F(4, 9)
    assert CubeClass(3, F(1, 9), 2).volume == F(100, 729)


def test_placed_cube_intervals_and_containment():
    c = PlacedCube(CubeClass(3, F(1, 9), 2), (F(10, 27), F(17, 27)))
    extent = [(lo, lo + c.cls.side) for lo in c.base]
    assert extent == [(F(10, 27), F(20, 27)), (F(17, 27), F(1))]
    assert verify_bin(Bin(2, (c,))).bad_cube is None
    out = PlacedCube(CubeClass(3, F(1, 9), 2), (F(20, 27), F(0)))
    assert verify_bin(Bin(2, (out,))).bad_cube is not None  # 20/27 + 10/27 > 1


def test_placed_cube_dimension_mismatch():
    with pytest.raises(ValueError):
        PlacedCube(CubeClass(3, F(1, 9), 2), (F(0),))


def test_cubes_disjoint_touching_and_overlap():
    cls = CubeClass(2, F(0), 2)
    a = PlacedCube(cls, (F(0), F(0)))
    b = PlacedCube(cls, (F(1, 2), F(0)))  # touches a along dim 0
    c = PlacedCube(cls, (F(1, 4), F(1, 4)))
    assert cubes_disjoint(a, b)
    assert not cubes_disjoint(a, c)
    with pytest.raises(ValueError):
        cubes_disjoint(a, PlacedCube(CubeClass(2, F(0), 3), (F(0),) * 3))


# Base-coordinate helpers local to the tests: an independent rendering of
# the defining formulas, kept separate from the packing module on purpose.
def base_x(k: int, j: int, eps: F) -> F:
    return 1 - (1 + eps) / k if j == k else (j - 1) * (1 + eps) / k


def class_interval(k: int, j: int, eps: F) -> tuple[F, F]:
    lo = base_x(k, j, eps)
    return (lo, lo + (1 + eps) / k)


def test_gap_inequality_exhaustive_to_class_12():
    """For eps = 1/S^2 every lower-class interval clears the top interval.

    Exhaustive over 2 <= k < k' <= S <= 12: the (k-1)-st upper endpoint
    stays strictly below the k'-th base point, the geometric heart of
    cross-class disjointness.
    """
    for S in range(2, 13):
        eps = F(1, S * S)
        for kp in range(3, S + 1):
            top = base_x(kp, kp, eps)
            for k in range(2, kp):
                y_top = base_x(k, k - 1, eps) + (1 + eps) / k
                assert y_top < top, (S, k, kp)


@pytest.mark.parametrize("k", range(2, 13))
def test_same_class_overlap_only_adjacent_top_pair(k):
    eps = F(1, 144)
    ivals = {j: class_interval(k, j, eps) for j in range(1, k + 1)}
    for j1, j2 in itertools.combinations(range(1, k + 1), 2):
        disjoint = intervals_disjoint(ivals[j1], ivals[j2])
        if (j1, j2) == (k - 1, k):
            assert not disjoint, k
        else:
            assert disjoint, (k, j1, j2)


def _grid_bin(k: int, d: int, eps: F) -> Bin:
    cls = CubeClass(k, eps, d)
    side = cls.side
    cubes = [
        PlacedCube(cls, tuple(i * side for i in idx))
        for idx in itertools.product(range(k - 1), repeat=d)
    ]
    return Bin(d, tuple(cubes))


def test_verify_bin_accepts_grid():
    report = verify_bin(_grid_bin(3, 2, F(1, 9)))
    assert report
    assert report.bad_cube is None and report.offending_pair is None
    assert report.cube_count == 4


def test_verify_bin_flags_duplicate_pair():
    cls = CubeClass(3, F(1, 9), 2)
    c = PlacedCube(cls, (F(0), F(0)))
    report = verify_bin(Bin(2, (c, c)))
    assert not report
    assert report.offending_pair == (0, 1)


def test_verify_bin_flags_containment():
    cls = CubeClass(3, F(1, 9), 2)
    c = PlacedCube(cls, (F(20, 27), F(0)))
    report = verify_bin(Bin(2, (c,)))
    assert report.bad_cube is not None
    assert report.bad_cube == 0
    assert report.offending_pair is None


def test_verify_bin_mixed_classes_touching():
    # One class-2 cube and one class-4 cube sharing a facet at d=2.
    eps = F(1, 16)
    c2 = PlacedCube(CubeClass(2, eps, 2), (F(15, 32), F(0)))
    c4 = PlacedCube(CubeClass(4, eps, 2), (F(0), F(47, 64)))
    report = verify_bin(Bin(2, (c2, c4)))
    assert report, (report.offending_pair, report.bad_cube)


def test_verify_bin_finds_cross_class_overlap():
    eps = F(1, 9)
    a = PlacedCube(CubeClass(2, eps, 2), (F(0), F(0)))
    b = PlacedCube(CubeClass(3, eps, 2), (F(1, 2), F(1, 2)))  # pokes into a
    report = verify_bin(Bin(2, (a, b)))
    assert report.offending_pair is not None
    assert report.offending_pair == (0, 1)


@st.composite
def verification_bins(draw):
    """d in 1..4 and 0..8 cubes.  Most coordinates lie on the 1/24 lattice,
    capped at the room 1 - side; with eps in {0, 1/2, 1} the sides are on
    that lattice too, so cubes touch each other and the bin's faces.
    About one coordinate in eight lies up to 1/4 below 0 or above the
    room.  Re-drawn cubes are coincident, and eps = 1/9 mixes
    denominators."""
    d = draw(st.integers(1, 4))
    cubes = []
    for _ in range(draw(st.integers(0, 8))):
        if cubes and draw(st.booleans()):
            cubes.append(cubes[draw(st.integers(0, len(cubes) - 1))])
            continue
        eps = draw(st.sampled_from([F(0), F(1, 2), F(1), F(1, 9)]))
        cls = CubeClass(draw(st.integers(2, 4)), eps, d)
        room = 1 - cls.side
        base = []
        for _ in range(d):
            kind = draw(st.integers(0, 7))
            off = F(draw(st.integers(1, 6)), 24)
            base.append(-off if kind == 0 else room + off if kind == 1
                        else min(room, F(draw(st.integers(0, 24)), 24)))
        cubes.append(PlacedCube(cls, tuple(base)))
    return Bin(d, tuple(cubes))


@given(verification_bins())
def test_verify_bin_matches_per_cube_and_pairwise_oracles(b):
    # the first cube with a coordinate outside [0, 1 - side], and the
    # lexicographically least pair that cubes_disjoint rejects
    outside = [
        i
        for i, c in enumerate(b.cubes)
        if any(not 0 <= x <= 1 - c.cls.side for x in c.base)
    ]
    overlapping = [
        (i, j)
        for i, j in itertools.combinations(range(len(b.cubes)), 2)
        if not cubes_disjoint(b.cubes[i], b.cubes[j])
    ]
    report = verify_bin(b)
    assert report.cube_count == len(b.cubes)
    assert report.bad_cube == (outside[0] if outside else None)
    assert (report.bad_cube is None) == (not outside)
    assert report.offending_pair == (overlapping[0] if overlapping else None)
    assert (report.offending_pair is None) == (not overlapping)


@st.composite
def faulted_grids(draw):
    """Class grids on their lattice, some cubes dropped, faults added.

    d in 1..3 and one class k in 2..5, sometimes a second, filling the
    grid i * side, i in 0..k-2.  Then up to three faults go in at random
    places: a copy of a cube, a cube shifted one lattice step along one
    axis, one shifted off the lattice by a part of a step, or one pushed
    out of the bin.  Faults on a single axis leave the other axes
    lattice-aligned, so verify_bin sees both kinds of axis together."""
    d = draw(st.integers(1, 3))
    cubes = []
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(2, 5))
        cls = CubeClass(k, draw(st.sampled_from([F(1, k - 1), F(1, 2 * k), F(1, 7)])), d)
        grid = [PlacedCube(cls, tuple(i * cls.side for i in idx))
                for idx in itertools.product(range(k - 1), repeat=d)]
        drop = draw(st.sets(st.integers(0, len(grid) - 1), max_size=len(grid) - 1))
        cubes += [c for i, c in enumerate(grid) if i not in drop]
    for _ in range(draw(st.integers(0, 3))):
        cube = cubes[draw(st.integers(0, len(cubes) - 1))]
        kind = draw(st.sampled_from(["copy", "step", "off", "out"]))
        dim = draw(st.integers(0, d - 1))
        side = cube.cls.side
        shift = {"copy": F(0), "step": draw(st.sampled_from([side, -side])),
                 "off": side * F(draw(st.integers(1, 3)), 4),
                 "out": 1 - side + F(1, 5) - cube.base[dim]}[kind]
        base = list(cube.base)
        base[dim] += shift
        cubes.insert(draw(st.integers(0, len(cubes))), PlacedCube(cube.cls, tuple(base)))
    return Bin(d, tuple(cubes))


@given(faulted_grids())
def test_verify_bin_grouping_matches_the_oracles(b):
    # lattice axes put cubes in code groups; the report must not change
    test_verify_bin_matches_per_cube_and_pairwise_oracles.hypothesis.inner_test(b)


def _pairwise_lowest_overlap(members, loose):
    """_lowest_overlap with each interval's overlap mask built by comparing
    it with every other interval of its axis, O(I^2) per axis."""
    g = len(members)
    axes = []
    for ids, intervals in loose:
        local = {}
        for pos, idx in enumerate(members):
            local[ids[idx]] = local.get(ids[idx], 0) | 1 << pos
        overlap = {}
        for t in local:
            lo, hi = intervals[t]
            overlap[t] = 0
            for u, mask in local.items():
                lo_u, hi_u = intervals[u]
                if lo < hi_u and lo_u < hi:
                    overlap[t] |= mask
        axes.append((ids, overlap))
    everyone = (1 << g) - 1
    for pos, idx in enumerate(members):
        acc = everyone
        for ids, overlap in axes:
            acc &= overlap[ids[idx]]
        extra = acc & ~(1 << pos)
        if extra:
            return idx, members[(extra & -extra).bit_length() - 1]
    return None


@st.composite
def loose_axes(draw):
    """(members, loose) for _lowest_overlap: up to 12 cubes of which an
    ascending subset are the members, and 1..3 axes, each with up to 6
    integer intervals in a bin [0, 12], starting from -3 to 14 and 1 to 12
    long: nested, identical, touching and out-of-bin intervals come up
    often.  Every cube lies on one interval per axis."""
    n = draw(st.integers(1, 12))
    members = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    loose = []
    for _ in range(draw(st.integers(1, 3))):
        intervals = []
        for _ in range(draw(st.integers(1, 6))):
            lo = draw(st.integers(-3, 14))
            intervals.append((lo, lo + draw(st.integers(1, 12))))
        ids = [draw(st.integers(0, len(intervals) - 1)) for _ in range(n)]
        loose.append((ids, intervals))
    return members, loose


@given(loose_axes())
def test_lowest_overlap_matches_the_pairwise_masks(case):
    members, loose = case
    assert geometry._lowest_overlap(members, loose) == _pairwise_lowest_overlap(*case)


def test_lowest_overlap_reads_nested_touching_and_identical_intervals():
    # cube 0 on [0, 12), 1 on [12, 24) touching it, 2 on [3, 6) inside
    # cube 0's, 3 on an identical copy of cube 0's interval
    loose = [([0, 1, 2, 3], [(0, 12), (12, 24), (3, 6), (0, 12)])]
    assert geometry._lowest_overlap([1, 2], loose) is None
    assert geometry._lowest_overlap([1, 2, 3], loose) == (2, 3)
    assert geometry._lowest_overlap([0, 1, 2, 3], loose) == (0, 2)


def test_builder_cubes_equal_checked_cubes():
    cls = CubeClass(3, F(1, 9), 2)
    bases = [(F(0), F(10, 27)), (F(10, 27), F(0))]
    cubes = geometry._placed(cls, bases)
    checked = tuple(PlacedCube(cls, base) for base in bases)
    assert cubes == checked and list(map(hash, cubes)) == list(map(hash, checked))
    assert geometry._placed(cls, []) == ()
    with pytest.raises(AttributeError):
        cubes[0].base = (F(0), F(0))


# Classes whose coordinates coincide: 0 in every table, 1/3 in (3, 0) and
# (4, 1/3), and the side 3/4 in both (2, 1/2) and (3, 5/4).
SHARING_CLASSES = [(2, F(1, 2)), (3, F(5, 4)), (3, F(0)), (4, F(1, 3)), (3, F(1, 9))]


@st.composite
def table_bins(draw):
    """A bin as (d, cubes), each cube (k, eps, base values): d in 1..3 and
    1..8 cubes of the SHARING_CLASSES, each coordinate i * side for i in
    0..k-1 (i = k-1 leaves the bin when eps > 0) or half a step above
    such a value, off the lattice."""
    d = draw(st.integers(1, 3))
    cubes = []
    for _ in range(draw(st.integers(1, 8))):
        k, eps = draw(st.sampled_from(SHARING_CLASSES))
        side = (1 + eps) / k
        base = tuple(draw(st.integers(0, k - 1)) * side + draw(st.sampled_from([0, 0, 0, side / 2]))
                     for _ in range(d))
        cubes.append((k, eps, base))
    return d, cubes


@given(table_bins())
def test_verify_bin_reads_values_not_objects(case):
    # the same bin built from one table of shared Fraction objects (equal
    # values one object, across classes too) and from fresh Fractions
    d, cubes = case
    table, classes = {}, {}
    shared = Bin(d, tuple(
        PlacedCube(classes.setdefault((k, eps), CubeClass(k, eps, d)),
                   tuple(table.setdefault(x, x) for x in base))
        for k, eps, base in cubes))
    fresh = Bin(d, tuple(
        PlacedCube(CubeClass(k, F(eps.numerator, eps.denominator), d),
                   tuple(F(x.numerator, x.denominator) for x in base))
        for k, eps, base in cubes))
    assert verify_bin(shared) == verify_bin(fresh)
    test_verify_bin_matches_per_cube_and_pairwise_oracles.hypothesis.inner_test(shared)


def test_verify_bin_reports_a_cube_out_of_the_bin_when_every_code_differs():
    # every axis is a lattice axis and no two cubes share a code, so no
    # group is formed: containment must still be reported
    cls = CubeClass(3, F(1, 9), 2)
    s = cls.side
    bases = [(0, 0), (2 * s, 0), (s, 0), (0, 2 * s), (s, s)]
    report = verify_bin(Bin(2, tuple(PlacedCube(cls, b) for b in bases)))
    assert (report.bad_cube is None, report.offending_pair is None) == (False, True)
    assert (report.bad_cube, report.offending_pair) == (1, None)


def _fraction_calls(monkeypatch, b: Bin):
    """verify_bin(b) and the number of Fraction methods it called."""
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    for name in ("as_integer_ratio", "__hash__"):
        monkeypatch.setattr(F, name, counted(getattr(F, name)))
    for name in ("numerator", "denominator"):
        monkeypatch.setattr(F, name, property(counted(getattr(F, name).fget)))
    report = verify_bin(b)
    monkeypatch.undo()
    return report, len(calls)


def test_verify_bin_makes_no_fraction_call_per_cube(monkeypatch):
    # the interval keys are ints read off the Fractions: the calls that
    # reading a Fraction's value makes may not grow with the cube count.
    # Bin(6, cubes) holds the grid's cubes without its factors, so it takes
    # the generic kernel
    grid = build_homogeneous(6, 6, F(1, 5)).bin  # 15,625 cubes, 5 intervals per axis
    report, calls = _fraction_calls(monkeypatch, Bin(6, grid.cubes))
    assert report and report.cube_count == 15_625
    assert calls <= 6 * 5, calls


def test_verify_bin_certifies_a_grid_with_no_fraction_call_per_cube(monkeypatch):
    # a grid is certified from its 5 coordinates, within the same bound
    grid = build_homogeneous(6, 6, F(1, 5)).bin
    report, calls = _fraction_calls(monkeypatch, grid)
    assert report and report.cube_count == 15_625
    assert calls <= 6 * 5, calls


def test_verify_bin_traced_peak_stays_below_the_bin():
    # verify_bin keeps O(n d) per-cube codes and ids; a structure per cube
    # pair, or a tuple per cube and axis, would outgrow the bin itself
    # (the grid's cubes are made on their first read, so that read is the
    # bin's size)
    tracemalloc.start()
    try:
        grid = build_homogeneous(6, 6, F(1, 5))  # 15,625 cubes
        before = tracemalloc.get_traced_memory()[0]
        grid.bin.cubes[0]
        size = tracemalloc.get_traced_memory()[0] - before
        plain = Bin(6, grid.bin.cubes)  # the same cubes, for the generic kernel
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        report = verify_bin(plain)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert report and report.cube_count == 15_625
    assert peak < size, (peak, size)


@st.composite
def grid_factors(draw):
    """(cls, coords) for _grid_bin: d in 1..3, k in 2..5 and 0..k coordinates,
    each i * side for i in -1..k-1, sometimes moved by half a side or by
    1/50.  Tables hold duplicates, coordinates closer than a side, below 0
    and past 1 - side, and often the coordinates of a valid grid."""
    d, k = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    cls = CubeClass(k, draw(st.sampled_from([F(1, k - 1), F(1, 2 * k), F(1, 7)])), d)
    side = cls.side
    shifts = [F(0), F(0), F(0), side / 2, F(1, 50), F(-1, 50)]
    coords = [draw(st.integers(-1, k - 1)) * side + draw(st.sampled_from(shifts))
              for _ in range(draw(st.integers(0, k)))]
    return cls, coords


@given(grid_factors())
def test_grid_bin_verifies_as_its_plain_bin_and_the_oracles(factors):
    # the factor path returns only when the generic kernel would say valid
    grid = geometry._grid_bin(*factors)
    plain = Bin(grid.d, grid.cubes)
    assert grid == plain and plain._factors is None
    assert verify_bin(grid) == verify_bin(plain)
    test_verify_bin_matches_per_cube_and_pairwise_oracles.hypothesis.inner_test(grid)


@st.composite
def word_factors(draw):
    """(d, factors) for _factored_bin from words: d in 1..3 and one or two
    classes, each a table of one to three letters at coordinates on the
    1/12 lattice, some below 0 or past the room, and one to five words over
    its letters, repeats among them."""
    d, factors = draw(st.integers(1, 3)), []
    for k in draw(st.lists(st.integers(2, 5), min_size=1, max_size=2, unique=True)):
        cls = CubeClass(k, draw(st.sampled_from([F(1, k * k), F(1, 2), F(0)])), d)
        letters = range(1, draw(st.integers(1, 3)) + 1)
        table = {j: F(draw(st.integers(-1, 12)), 12) for j in letters}
        words = tuple(tuple(draw(st.sampled_from(letters)) for _ in range(d))
                      for _ in range(draw(st.integers(1, 5))))
        factors.append((cls, table, words))
    return d, tuple(factors)


def _eager_cubes(d, factors) -> tuple[PlacedCube, ...]:
    """The cubes `factors` names, each made by the checked constructor."""
    return tuple(PlacedCube(cls, base) for cls, table, words in factors
                 for base in (itertools.product(table.values(), repeat=d) if words is None
                              else (tuple(table[j] for j in w) for w in words)))


@given(st.one_of(grid_factors().map(lambda f: (f[0].d, ((f[0], dict(enumerate(f[1])), None),))),
                 word_factors()))
def test_factored_cubes_are_made_on_first_read_as_an_eager_build(case):
    # the count is free; the first read makes the eager build's cubes, in
    # its order, and every later read returns the same objects.  The bin
    # equals, hashes, prints, grows, pickles and verifies as the plain bin
    # of them, the witnesses of a failing bin too
    d, factors = case
    eager = _eager_cubes(d, factors)
    plain = Bin(d, eager)
    fresh = geometry._factored_bin(d, factors)
    assert verify_bin(fresh) == verify_bin(plain)
    loaded = pickle.loads(pickle.dumps(fresh))
    assert loaded == plain and verify_bin(loaded) == verify_bin(plain)
    b = geometry._factored_bin(d, factors)
    assert len(b.cubes) == len(b) == len(eager) and "_tuple" not in vars(b.cubes)
    cubes = list(b.cubes)
    assert cubes == list(eager) and all(map(operator.is_, cubes, b.cubes))
    assert [b.cubes[i] for i in range(-len(eager), len(eager))] == list(eager * 2)
    assert b.cubes[1:] == eager[1:] and b.cubes[::-1] == eager[::-1]
    cube = PlacedCube(CubeClass(2, F(0), d), (F(1, 2),) * d)
    assert b.cubes == eager and eager == b.cubes and b.cubes == fresh.cubes
    assert b.cubes != list(eager) and b.cubes != eager + (cube,)
    assert b == plain and plain == b and hash(b) == hash(plain)
    assert repr(b) == repr(plain) and b.cubes + eager == eager + eager
    assert b.with_cube(cube) == Bin(d, eager + (cube,))


def test_grid_bin_keeps_the_product_order():
    cls = CubeClass(4, F(1, 8), 2)
    coords = [i * cls.side for i in range(3)]
    grid = geometry._grid_bin(cls, coords)
    assert [c.base for c in grid.cubes] == list(itertools.product(coords, repeat=2))
    assert grid == _grid_bin(4, 2, F(1, 8))


@pytest.fixture
def gc_runs():
    """The generations of the cyclic collections run inside the test, from
    an empty young generation under the default thresholds."""
    seen, threshold = [], gc.get_threshold()

    def record(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    assert gc.isenabled()
    gc.set_threshold(700, 10, 10)
    gc.collect()
    gc.callbacks.append(record)
    try:
        yield seen
    finally:
        gc.callbacks.remove(record)
        gc.set_threshold(*threshold)


@pytest.mark.parametrize("k, d, full", [(6, 6, []), (7, 6, [2])])
def test_a_grid_is_made_with_the_collector_paused(gc_runs, k, d, full):
    # 15,625 and 46,656 cubes, each with its base tuple, made on the first
    # read of a cube: only a bulk past 700 * 10 * 10 objects runs a full
    # collection, before it, and the one young collection after it ages the
    # cubes; left on, the collector ran over a hundred collections on the
    # larger grid.  Building the grid and taking its length make no cube
    grid = build_homogeneous(k, d, F(1, k - 1))
    assert len(grid.bin.cubes) == (k - 1) ** d and gc_runs == []
    grid.bin.cubes[0]
    assert gc_runs in (full, full + [0])
    assert gc.isenabled()


def test_gc_paused_leaves_the_collector_as_it_was(gc_runs):
    with pytest.raises(KeyError), geometry._gc_paused(0):
        assert not gc.isenabled()
        raise KeyError
    assert gc.isenabled()
    gc.disable()
    try:
        with geometry._gc_paused(10**6):  # disabled: no full collection either
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert gc_runs == []


def test_a_grid_is_certified_from_its_factors(monkeypatch):
    # no interval is keyed per cube for a grid whose factors hold
    grid = build_homogeneous(5, 3, F(1, 4)).bin
    monkeypatch.setattr(geometry, "_cube_keys", None)
    assert verify_bin(grid) == BinVerification(64)


@pytest.mark.parametrize("coords, expected", [
    ([F(0), F(1, 2), F(0)], BinVerification(9, None, (0, 2))),
    ([F(0), F(7, 8)], BinVerification(4, 1)),
], ids=["duplicate", "past_the_top"])
def test_a_grid_whose_factors_fail_reports_as_its_plain_bin_in_one_call(
    monkeypatch, coords, expected
):
    # side 3/16: a repeated coordinate, or one past 1 - side = 13/16.  The
    # grid's cubes are keyed once and decided in the same call, with no
    # second verify_bin
    grid = geometry._grid_bin(CubeClass(8, F(1, 2), 2), coords)
    assert verify_bin(Bin(2, grid.cubes)) == expected
    keyed, calls = geometry._cube_keys, []
    monkeypatch.setattr(geometry, "verify_bin", lambda b: pytest.fail("verify_bin recursed"))
    monkeypatch.setattr(geometry, "_cube_keys", lambda *a: calls.append(a) or keyed(*a))
    assert verify_bin(grid) == expected and len(calls) == 1


def test_grid_factors_do_not_survive_a_change_of_cubes():
    grid = build_homogeneous(3, 2, F(1, 9)).bin
    cube = grid.cubes[0]
    grown = grid.with_cube(PlacedCube(cube.cls, cube.base))  # overlaps cube 0
    assert grown._factors is None
    report = verify_bin(grown)
    assert not report and report.offending_pair == (0, 4)
    swapped = replace(grid, cubes=grid.cubes[:1] * 2)
    assert swapped._factors is None
    assert verify_bin(swapped).offending_pair == (0, 1)
    assert grid == Bin(2, grid.cubes) and hash(grid) == hash(Bin(2, grid.cubes))


def test_with_cube_refuses_a_cube_of_another_dimension():
    b = Bin(2, (PlacedCube(CubeClass(3, F(1, 9), 2), (F(0), F(0))),))
    with pytest.raises(ValueError, match="cube of dimension 3 in 2-dimensional bin"):
        b.with_cube(PlacedCube(CubeClass(3, F(1, 9), 3), (F(0),) * 3))


@given(st.one_of(verification_bins(), faulted_grids(),
                 grid_factors().map(lambda factors: geometry._grid_bin(*factors))),
       st.data())
def test_with_cube_verifies_as_the_bin_built_whole(b, data):
    # with_cube checks only the new cube's dimension, so the grown bin must
    # be the plain bin a full construction gives, and verify as it does; the
    # new cube is a resident's copy or is drawn on the 1/24 lattice, some
    # below 0 and past the top
    if b.cubes and data.draw(st.booleans()):
        cube = data.draw(st.sampled_from(b.cubes))
    else:
        cls = CubeClass(data.draw(st.integers(2, 4)),
                        data.draw(st.sampled_from([F(0), F(1, 2), F(1), F(1, 9)])), b.d)
        cube = PlacedCube(cls, tuple(F(data.draw(st.integers(-3, 24)), 24) for _ in range(b.d)))
    grown, whole = b.with_cube(cube), Bin(b.d, b.cubes + (cube,))
    assert grown == whole and grown._factors is None
    assert verify_bin(grown) == verify_bin(whole)


def test_occupied_volume_grid_and_empty():
    assert occupied_volume(Bin(2)) == 0
    assert occupied_volume(_grid_bin(3, 2, F(1, 9))) == F(400, 729)


def test_occupied_volume_never_exceeds_one_on_valid_bins():
    for k, d in [(2, 2), (3, 2), (4, 2), (3, 3), (2, 4)]:
        b = _grid_bin(k, d, F(1, k * k))
        assert verify_bin(b)
        assert occupied_volume(b) <= 1


def test_find_free_position_grid_slot():
    eps = F(1, 9)
    cls = CubeClass(3, eps, 2)
    side = cls.side
    cubes = [
        PlacedCube(cls, (F(0), F(0))),
        PlacedCube(cls, (F(0), side)),
        PlacedCube(cls, (side, F(0))),
    ]
    pos = find_free_position(cubes, side, 2)
    assert pos == (side, side)


def test_find_free_position_full_bin_returns_none():
    b = _grid_bin(3, 2, F(1, 9))
    assert find_free_position(b.cubes, b.cubes[0].cls.side, 2) is None


def test_find_free_position_empty_bin_origin():
    assert find_free_position([], F(1, 2), 3) == (F(0), F(0), F(0))


def _lattice_class(k_extra: int, m: int, lattice: int, d: int) -> CubeClass:
    # side m/L written as (1 + eps)/k: any k >= L/m works, and each choice
    # gives eps = k*m/L - 1 its own denominator
    k = max(2, -(-lattice // m)) + k_extra
    return CubeClass(k, F(k * m, lattice) - 1, d)


def _lattice_oracle(obstacles, q: int, lattice: int, d: int):
    """Lexicographically least lattice base, in units of 1/L, or None."""
    for x in itertools.product(range(lattice - q + 1), repeat=d):
        if all(
            any(xi + q <= bi or bi + m <= xi for xi, bi in zip(x, base))
            for base, m in obstacles
        ):
            return tuple(F(xi, lattice) for xi in x)
    return None


@st.composite
def lattice_insertions(draw):
    d = draw(st.integers(1, 3))
    lattice = draw(st.integers(2, 12))
    obstacles = []
    for _ in range(draw(st.integers(0, 6))):
        m = draw(st.integers(1, lattice))
        # bases anywhere in the bin: obstacles may touch or overlap
        base = tuple(draw(st.integers(0, lattice - m)) for _ in range(d))
        obstacles.append((base, m, draw(st.integers(0, 2))))
    q = draw(st.integers(1, lattice))
    return d, lattice, obstacles, q, draw(st.integers(0, 2))


@given(lattice_insertions())
def test_find_free_position_matches_lattice_oracle(case):
    # With bases and sides on the 1/L lattice every obstacle top is a
    # lattice point, so the least free lattice base is the least free base.
    d, lattice, obstacles, q, q_extra = case
    cubes = [
        PlacedCube(
            _lattice_class(extra, m, lattice, d), tuple(F(b, lattice) for b in base)
        )
        for base, m, extra in obstacles
    ]
    side = _lattice_class(q_extra, q, lattice, d).side
    expected = _lattice_oracle([(b, m) for b, m, _ in obstacles], q, lattice, d)
    assert find_free_position(cubes, side, d) == expected


def test_find_free_position_off_grid_corner_is_obstacle_tops():
    # x = 0 is blocked for every y by a (below) and b (above); the least
    # base then rests on b's top along x and on a's top along y.
    a = PlacedCube(CubeClass(3, F(1, 9), 2), (F(0), F(0)))  # side 10/27
    b = PlacedCube(CubeClass(5, F(1, 9), 2), (F(1, 7), F(5, 7)))  # side 2/9
    pos = find_free_position([a, b], F(1, 2), 2)
    assert pos == (b.base[0] + b.cls.side, a.base[1] + a.cls.side)
    assert pos == (F(23, 63), F(10, 27))


def _lattice_joint_oracle(obstacles, sizes, lattice: int, d: int) -> bool:
    """Brute force: do cubes of the given lattice sizes fit together?"""
    boxes = list(obstacles)

    def rec(j: int) -> bool:
        if j == len(sizes):
            return True
        q = sizes[j]
        for x in itertools.product(range(lattice - q + 1), repeat=d):
            if all(
                any(xi + q <= bi or bi + m <= xi for xi, bi in zip(x, base))
                for base, m in boxes
            ):
                boxes.append((x, q))
                if rec(j + 1):
                    return True
                boxes.pop()
        return False

    return rec(0)


@st.composite
def lattice_joint_insertions(draw):
    d = draw(st.integers(1, 2))
    lattice = draw(st.integers(2, 8 if d == 1 else 5))
    obstacles = []
    for _ in range(draw(st.integers(0, 4))):
        m = draw(st.integers(1, lattice))
        base = tuple(draw(st.integers(0, lattice - m)) for _ in range(d))
        obstacles.append((base, m, draw(st.integers(0, 2))))
    incoming = draw(
        st.lists(
            st.tuples(st.integers(1, lattice), st.integers(0, 2)), min_size=1, max_size=3
        )
    )
    return d, lattice, obstacles, incoming


@given(lattice_joint_insertions())
def test_find_joint_positions_matches_lattice_oracle(case):
    # With everything on the 1/L lattice, every joint layout can be pushed
    # onto lattice points, so the brute-force lattice search is complete.
    d, lattice, obstacles, incoming = case
    cubes = [
        PlacedCube(
            _lattice_class(extra, m, lattice, d), tuple(F(b, lattice) for b in base)
        )
        for base, m, extra in obstacles
    ]
    classes = [_lattice_class(extra, q, lattice, d) for q, extra in incoming]
    found = find_joint_positions(cubes, [c.side for c in classes], d)
    expected = _lattice_joint_oracle(
        [(b, m) for b, m, _ in obstacles], [q for q, _ in incoming], lattice, d
    )
    assert (found is not None) == expected
    if found is None:
        return
    placed = tuple(PlacedCube(c, base) for c, base in zip(classes, found))
    assert verify_bin(Bin(d, placed))
    assert all(cubes_disjoint(a, b) for a in placed for b in cubes)
    # one-by-one least-corner placement, when it succeeds, is kept
    greedy = []
    for c in classes:
        pos = find_free_position(cubes + greedy, c.side, d)
        if pos is None:
            return
        greedy.append(PlacedCube(c, pos))
    assert found == tuple(c.base for c in greedy)


def test_find_joint_positions_beats_one_by_one_placement():
    # Placing either incoming cube first at its least corner blocks the
    # other, yet both fit together.
    small = CubeClass(6, 0, 2)  # side 1/6
    obstacles = [
        PlacedCube(small, (F(1, 3), F(1, 6))),
        PlacedCube(small, (F(0), F(7, 12))),
    ]
    big = CubeClass(2, F(1, 6), 2)  # side 7/12
    mid = CubeClass(3, F(1, 4), 2)  # side 5/12
    for first, second in ((big, mid), (mid, big)):
        pos = find_free_position(obstacles, first.side, 2)
        blocked = obstacles + [PlacedCube(first, pos)]
        assert find_free_position(blocked, second.side, 2) is None
    witness = (PlacedCube(big, (F(5, 12), F(5, 12))), PlacedCube(mid, (F(1, 2), F(0))))
    assert verify_bin(Bin(2, tuple(obstacles) + witness))
    found = find_joint_positions(obstacles, [big.side, mid.side], 2)
    assert found is not None
    layout = tuple(obstacles) + tuple(
        PlacedCube(c, base) for c, base in zip((big, mid), found)
    )
    assert verify_bin(Bin(2, layout))



@pytest.mark.parametrize("d", [3, 0, 1])
def test_placement_searches_check_the_dimension(d):
    # a 2-d resident searched in any other dimension is refused, not read
    # off its first d coordinates
    cubes = [PlacedCube(CubeClass(2, F(1, 9), 2), (F(0), F(0)))]
    with pytest.raises(ValueError, match="dimension"):
        find_free_position(cubes, F(5, 9), d)
    with pytest.raises(ValueError, match="dimension"):
        find_joint_positions(cubes, [F(5, 9)], d)


def test_no_incoming_cubes_is_the_empty_layout():
    cubes = [PlacedCube(CubeClass(2, F(1, 9), 2), (F(0), F(0)))]
    assert find_joint_positions(cubes, [], 2) == ()
    assert geometry._joint_corners([((0, 0), (5, 5))], 9, [], 2) == []
    # no base is examined, so no budget is drawn
    assert geometry._joint_corners([((0, 0), (5, 5))], 9, [], 2, 0) == []


@pytest.mark.parametrize(
    "boxes, scale, ints, d, least",
    [
        ([], 12, [5, 5, 4, 3], 2, 24),
        ([((0, 0), (4, 4)), ((6, 2), (9, 5))], 12, [5, 5, 5], 2, 63),
        ([((0, 0), (7, 7))], 12, [6, 6], 2, 4),
        ([((1, 1, 1), (3, 3, 3))], 8, [4, 4, 3], 3, 18),
    ],
)
def test_node_cap_counts_every_candidate_base(boxes, scale, ints, d, least):
    # one draw per complete candidate base, summed over all incoming cubes,
    # before the overlap and floor tests; the least cap that does not raise
    # gives the uncapped layout
    uncapped = geometry._joint_corners(boxes, scale, ints, d)
    assert geometry._joint_corners(boxes, scale, ints, d, least) == uncapped
    with pytest.raises(geometry.SearchBudgetError):
        geometry._joint_corners(boxes, scale, ints, d, least - 1)


# -- argument refusals ---------------------------------------------------------


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: CubeClass(2, F(1, 4), 0), ValueError, "dimension d must be an int >= 1"),
        (lambda: Bin(2, [PlacedCube(CubeClass(2, F(1, 4), 1), (F(0),))]), ValueError,
         "cube of dimension 1 in 2-dimensional bin"),
        (lambda: find_free_position([], F(0), 1), ValueError, "side must be in (0, 1]"),
        (lambda: find_joint_positions([], [F(1, 2), F(3, 2)], 1), ValueError,
         "side must be in (0, 1]"),
    ],
    ids=["cube-class-d0", "bin-mixed-d", "side-zero", "joint-side-past-1"],
)
def test_geometry_refuses_hostile_arguments(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
