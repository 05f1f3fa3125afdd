"""Exact rational geometry for open hypercubes inside the unit bin.

Every coordinate, side length and volume at the API is a
`fractions.Fraction`; floats are rejected at the boundary so no rounding
can sneak into a correctness path.  Inside, every geometric check reads
its intervals from one table, _intervals: each distinct (base, side)
interval once, and per axis each cube's index into it.  One scaling of
that table onto ints over one lcm serves verify_bin, the placement
searches and the game's bin contents, which compare ints: exact and far
cheaper.  verify_bin's docstring states the grid, symbol and lattice-axis
lemmas it decides bins by.  Cubes are open boxes: two cubes that merely
share a boundary facet count as disjoint.
"""

from __future__ import annotations

import gc
import sys
from bisect import bisect_left, bisect_right
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, groupby, islice, product, repeat
from math import lcm, prod
from operator import itemgetter, lt, or_
from typing import Optional, Sequence, Union

Rational = Union[int, str, Fraction]


def as_rational(value: Rational) -> Fraction:
    """Coerce an int, a "p/q" string, or a Fraction to an exact Fraction.

    Floats are refused on purpose: silently rounding 0.1 to a nearby
    rational would poison every downstream exactness guarantee.  Bools
    are refused too, so that a JSON true is not read as 1.
    """
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in rational {value!r}") from None
    raise TypeError(f"expected int, 'p/q' string or Fraction, got {type(value).__name__}")


def expect_type(value, kind: type):
    """`value` itself if its type is exactly `kind`, else a TypeError.

    Decoders read outside JSON through this rather than through int() or
    list(), which would turn 2.5 into 2, true into 1 or an object into
    its keys: a malformed file would pass as a different, valid one.
    """
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value


@contextmanager
def _int_digits(limit: int):
    """Run with Python's int/str conversion limit at `limit` digits (0: none)."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def format_rational(value: Rational) -> str:
    """Render a rational as the canonical "p/q" string used in JSON files,
    at any size, past Python's limit on int/str conversions too."""
    q = as_rational(value)
    with _int_digits(0):
        return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class CubeClass:
    """Cube type: side (1 + epsilon) / k in dimension d.

    k >= 2 is the class index, epsilon >= 0 a rational slack.  The side
    must not exceed 1, i.e. epsilon <= k - 1.  epsilon == 0 is the
    degenerate closed-packing limit, allowed for volume queries but
    rejected by the packing builders (they need strict slack).
    """

    k: int
    epsilon: Fraction
    d: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"class index k must be an int >= 2, got {self.k!r}")
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"dimension d must be an int >= 1, got {self.d!r}")
        object.__setattr__(self, "epsilon", as_rational(self.epsilon))
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.side > 1:
            raise ValueError(
                f"side (1+{self.epsilon})/{self.k} exceeds 1; need epsilon <= k-1"
            )

    @cached_property
    def side(self) -> Fraction:
        return (1 + self.epsilon) / self.k

    @cached_property
    def volume(self) -> Fraction:
        return self.side ** self.d


@dataclass(frozen=True, slots=True)
class PlacedCube:
    """A class cube anchored at an exact base corner.

    Construction validates shape only; containment in the unit bin is
    policed by verify_bin so that ill-formed inputs (e.g. loaded from a
    hostile JSON file) can still be inspected and reported.
    """

    cls: CubeClass
    base: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        base = tuple(map(as_rational, self.base))
        object.__setattr__(self, "base", base)
        if len(base) != self.cls.d:
            raise ValueError(
                f"base has {len(base)} coordinates for a {self.cls.d}-dimensional cube"
            )


@contextmanager
def _gc_paused(objects: int):
    """Run a bulk build of about `objects` acyclic objects with the cyclic
    collector off, which would walk them many times and free none.  A bulk
    big enough to set off a full collection (the thresholds' product) runs
    one first, so cycles made elsewhere are freed about as early as before."""
    enabled = gc.isenabled()
    if enabled and objects >= prod(gc.get_threshold()):
        gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _placed(cls: CubeClass, bases: Sequence[tuple[Fraction, ...]]) -> tuple[PlacedCube, ...]:
    """PlacedCubes of class cls at `bases`, d Fractions each from a builder's
    own tables, without the constructor's checks: made in bulk and filled
    through the slot descriptors (a zero-length deque runs each map)."""
    cubes = tuple(map(object.__new__, repeat(PlacedCube, len(bases))))
    deque(map(PlacedCube.cls.__set__, cubes, repeat(cls)), 0)
    deque(map(PlacedCube.base.__set__, cubes, bases), 0)
    return cubes


def cubes_disjoint(a: PlacedCube, b: PlacedCube) -> bool:
    """True iff the two open cubes do not intersect.

    Open boxes intersect exactly when their projections intersect in
    every dimension, so one disjoint dimension certifies disjointness.
    """
    if a.cls.d != b.cls.d:
        raise ValueError(f"dimension mismatch: {a.cls.d} vs {b.cls.d}")
    sa, sb = a.cls.side, b.cls.side
    for xa, xb in zip(a.base, b.base):
        if xa + sa <= xb or xb + sb <= xa:
            return True
    return False


@dataclass(frozen=True)
class Bin:
    """A unit bin holding placed cubes of one dimension.

    The cube tuple is immutable; "adding" a cube builds a new Bin via
    with_cube.  Disjointness is certified by verify_bin, never assumed.
    """

    d: int
    cubes: tuple[PlacedCube, ...] = ()
    # set only by _factored_bin, which documents it; not a field, so no other Bin has it
    _factors = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cubes", tuple(self.cubes))
        for c in self.cubes:
            if c.cls.d != self.d:
                raise ValueError(
                    f"cube of dimension {c.cls.d} in {self.d}-dimensional bin"
                )

    def with_cube(self, cube: PlacedCube) -> "Bin":
        """A plain bin of these cubes and `cube`.  Only `cube`'s dimension is
        checked: the residents were checked when this bin was built."""
        if cube.cls.d != self.d:
            raise ValueError(f"cube of dimension {cube.cls.d} in {self.d}-dimensional bin")
        grown = object.__new__(Bin)
        vars(grown).update(d=self.d, cubes=self.cubes + (cube,))
        return grown

    def __len__(self) -> int:
        return len(self.cubes)


@dataclass(frozen=True)
class BinVerification:
    """Outcome of an exact bin check; truthy iff it names no witness: no
    cube out of the bin and no overlapping pair."""

    cube_count: int
    bad_cube: Optional[int] = None
    offending_pair: Optional[tuple[int, int]] = None

    def __bool__(self) -> bool:
        return self.bad_cube is None and self.offending_pair is None


def _factored_bin(d: int, factors) -> Bin:
    """The bin of the cubes `factors` names, carrying them for verify_bin:
    per class, in cube order, (cls, table, words), a cube at
    map(table.__getitem__, w) per word w, or words None and cubes at
    product(table.values(), repeat=d).  Trusted: every class has dimension d
    and every letter a table entry, so no cube is checked one by one."""
    counts = [len(table) ** d if words is None else len(words) for _, table, words in factors]
    with _gc_paused(2 * sum(counts)):  # a base tuple and a cube each
        cubes = tuple(chain.from_iterable(
            _placed(cls, list(product(table.values(), repeat=d)) if words is None
                    else [tuple(map(table.__getitem__, w)) for w in words])
            for cls, table, words in factors))
    b = object.__new__(Bin)
    vars(b).update(d=d, cubes=cubes, _factors=factors)
    return b


def _grid_bin(cls: CubeClass, coords: Sequence[Fraction]) -> Bin:
    """The bin of class-cls cubes at every point of coords^d, in product order."""
    return _factored_bin(cls.d, ((cls, dict(enumerate(coords)), None),))


def _cube_keys(bases: Sequence[tuple[Fraction, ...]], sides: Sequence[Fraction], d: int):
    """(keys, columns) of cubes at `bases` with `sides`, as _intervals gives
    them: the ints of each normalised base and side, read off the Fractions'
    slots with no call per coordinate, name an interval and hash far faster."""
    index: dict[tuple[int, int, int, int], int] = {}
    key = index.setdefault
    columns = [[key((x._numerator, x._denominator, s._numerator, s._denominator), len(index))
                for x, s in zip(map(itemgetter(dim), bases), sides)] for dim in range(d)]
    return list(index), columns


def _intervals(b: Bin, per_cube: bool = False):
    """(keys, columns): the bin's distinct intervals, each as the ints
    (base num, base den, side num, side den), and per axis each cube's key
    index, or columns None for a product grid, keyed once per table entry
    (a repeated coordinate too).  A builder's bin is keyed once per (class,
    letter) off its factor tables, and its columns are read off the words;
    every other bin, and any with per_cube, is keyed per cube."""
    if per_cube or not b._factors:
        return _cube_keys([c.base for c in b.cubes], [c.cls.side for c in b.cubes], b.d)
    keys, columns = [], [[] for _ in range(b.d)]
    for cls, table, words in b._factors:
        side = cls.side
        symbol = {letter: len(keys) + i for i, letter in enumerate(table)}
        keys += [(x.numerator, x.denominator, side.numerator, side.denominator)
                 for x in table.values()]
        if words is None:
            return keys, None
        flat = list(map(symbol.__getitem__, chain.from_iterable(words)))
        for i, column in enumerate(columns):
            column += flat[i::b.d]  # every word has d letters
    return keys, columns


def _scaled(keys) -> tuple[int, list[tuple[int, int]]]:
    """(scale, intervals): each key's open interval as ints (lo, hi) over
    scale, the lcm of every denominator, so comparing ints is exact."""
    scale = lcm(*{*map(itemgetter(1), keys), *map(itemgetter(3), keys)})
    return scale, [(lo := p * (scale // q), lo + sp * (scale // sq)) for p, q, sp, sq in keys]


def _int_boxes(bases, box_sides, sides, d: int):
    """(scale, boxes, ints): cubes at `bases` with `box_sides` as open boxes
    of int corners (lo, hi), and `sides` as ints, all over scale, the lcm of
    every denominator: the one scaling of placement searches and game bins."""
    keys, columns = _cube_keys(bases, box_sides, d)
    scale, intervals = _scaled(keys + [(0, 1, s.numerator, s.denominator) for s in sides])
    boxes = [tuple(zip(*map(intervals.__getitem__, ts))) for ts in zip(*columns)]
    return scale, boxes, tuple([hi for _, hi in intervals[len(keys):]])


def _disjoint(intervals) -> bool:
    """True iff the open intervals are pairwise disjoint (and so distinct)."""
    ordered = sorted(intervals)
    return all(hi <= lo for (_, hi), (lo, _) in zip(ordered, ordered[1:]))


def _lowest_overlap(members: list[int], loose) -> Optional[tuple[int, int]]:
    """Lowest pair of `members` (ascending cube indices) overlapping on every
    axis in `loose`, a list of (ids, intervals), or None.

    On each axis a member's big-int mask holds the members whose interval
    overlaps its own, itself included; ANDing its masks leaves those that
    overlap it on every axis.  The first member with a partner left has no
    lower one, so it and its lowest partner form the lowest pair.
    A member lies on one interval per axis, so the members overlapping
    [lo, hi) are those starting below hi minus those ending by lo: two
    bisections into prefix ORs over the intervals sorted by each end.
    """
    g = len(members)
    axes = []
    for ids, intervals in loose:
        local: dict[int, bytearray] = {}  # interval -> bitmap of its members
        for pos, idx in enumerate(members):
            bits = local.get(ids[idx])
            if bits is None:
                bits = local[ids[idx]] = bytearray((g + 7) // 8)
            bits[pos >> 3] |= 1 << (pos & 7)
        masks = [(intervals[t], int.from_bytes(buf, "little")) for t, buf in local.items()]
        by_lo = sorted(masks, key=lambda item: item[0][0])
        by_hi = sorted(masks, key=lambda item: item[0][1])
        starts = [lo_u for (lo_u, _), _ in by_lo]
        stops = [hi_u for (_, hi_u), _ in by_hi]
        started = [0, *accumulate((mask for _, mask in by_lo), or_)]
        stopped = [0, *accumulate((mask for _, mask in by_hi), or_)]
        overlap = {}
        for t in local:
            lo, hi = intervals[t]
            overlap[t] = started[bisect_left(starts, hi)] & ~stopped[bisect_right(stops, lo)]
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


def verify_bin(b: Bin) -> BinVerification:
    """Exact containment and pairwise-disjointness certificate for a bin.

    Every check runs on the one interval table _intervals gives, scaled
    onto ints over one lcm.  Each distinct interval is checked once
    against [0, 1], and the cubes are compared through three lemmas.

    Grid lemma: the product grid over a table of coordinates is valid when
    none leaves [0, 1] and the sorted intervals are pairwise disjoint.  Two
    distinct product cubes differ in the table position on some axis,
    where their open intervals are disjoint, so the cubes are disjoint;
    this is O(k) work for the (k-1)^d cubes of an H_k.  A grid whose
    table fails is keyed per cube like any other bin, so every failure
    report is the same.

    Symbol lemma: a cube placed from a word has on axis i its class's table
    entry for letter i, so one key per (class, letter) serves every axis
    and the columns are read off the words.  The kernel reads a key index
    only through its interval, so it decides exactly what it does on cubes.

    Lattice-axis lemma: on an axis whose distinct intervals are pairwise
    disjoint, two cubes overlap iff they share the interval, as an open
    interval meets itself and no other.  Such an axis adds its key index
    as one mixed-radix digit to a per-cube code, so cubes agree on every
    lattice axis iff their codes are equal.  Open boxes intersect iff they
    overlap on every axis, so each intersecting pair lies in one code group
    and is decided there on the loose axes alone.  When the codes all
    differ, as on most harness bins, the bin is disjoint: sorting the codes
    and comparing neighbours decides it.  Otherwise one sort of the cubes
    brings the groups together.  The first cube out of the bin and the
    first offending pair (lowest indices) are reported for debugging; the
    lowest pair is the least of the groups' lowest pairs.
    """
    n = len(b.cubes)
    keys, columns = _intervals(b)
    scale, intervals = _scaled(keys)
    if columns is None:  # a product grid: the grid lemma, else keyed per cube
        if all(0 <= lo and hi <= scale for lo, hi in intervals) and _disjoint(intervals):
            return BinVerification(n)
        keys, columns = _intervals(b, per_cube=True)
        scale, intervals = _scaled(keys)
    leaving = {t for t, (lo, hi) in enumerate(intervals) if lo < 0 or hi > scale}
    codes, radix, loose = [0] * n, 1, []
    for ids in columns:
        if _disjoint([intervals[t] for t in set(ids)]):
            codes = [code + radix * t for code, t in zip(codes, ids)]
            radix *= len(keys)
        else:
            loose.append((ids, intervals))
    bad_cube = next((i for i, ts in enumerate(zip(*columns)) if not leaving.isdisjoint(ts)),
                    None) if leaving else None
    ordered = sorted(codes)  # a sorted copy of the ints: no set table on big grids
    if all(map(lt, ordered, islice(ordered, 1, None))):
        return BinVerification(n, bad_cube)
    groups = (list(g) for _, g in groupby(sorted(range(n), key=codes.__getitem__),
                                          codes.__getitem__))
    pairs = [_lowest_overlap(members, loose) for members in groups if len(members) > 1]
    pair = min(filter(None, pairs), default=None)
    return BinVerification(n, bad_cube, pair)


def occupied_volume(b: Bin) -> Fraction:
    """Total volume of the cubes in the bin, exactly."""
    counts: dict[CubeClass, int] = {}
    for cube in b.cubes:
        counts[cube.cls] = counts.get(cube.cls, 0) + 1
    return sum((cls.volume * cnt for cls, cnt in counts.items()), start=Fraction(0))


class SearchBudgetError(RuntimeError):
    """A placement search examined more candidate bases than its budget."""


def find_free_position(
    cubes: Sequence[PlacedCube], side: Fraction, d: int
) -> Optional[tuple[Fraction, ...]]:
    """Lexicographically least base where a side-length cube fits, or None.

    The search is exact and complete.  The free bases form a compact set
    (the box [0, 1 - side]^d minus finitely many open boxes), so a
    lexicographically least one exists.  Each of its coordinates is 0 or
    some obstacle's top: otherwise that coordinate could slide down a
    little and stay free, giving a smaller base.  So searching the
    candidates {0} plus obstacle tops per axis, in lexicographic order,
    finds exactly that base, and None proves the cube does not fit.

    This is find_joint_positions with one incoming cube, whose candidates
    are exactly these.
    """
    found = find_joint_positions(cubes, [side], d)
    return None if found is None else found[0]


def find_joint_positions(
    cubes: Sequence[PlacedCube],
    sides: Sequence[Fraction],
    d: int,
) -> Optional[tuple[tuple[Fraction, ...], ...]]:
    """Bases at which cubes of the given sides fit together among `cubes`.

    Returns one base per side, in the given order, or None.  The search is
    exact and complete, so None proves that no joint layout exists with
    the resident cubes kept in place.  Take any joint layout whose
    coordinate sum is least.  Each coordinate of each incoming cube then
    rests on 0, on a resident's top, or on another incoming cube's top,
    or it could slide down and lower the sum.  Following the "rests on
    an incoming cube" links along one axis gives a chain whose
    coordinates strictly descend, so no cube repeats and the chain ends
    at 0 or at a resident's top.  Every coordinate of incoming cube j is
    therefore r + (sum of the sides of some other incoming cubes), with
    r in {0} plus resident tops, and those are the candidates searched.

    Cubes are placed in the given order, each at every free candidate
    base in lexicographic order, with backtracking.  Each cube's first
    candidate is its lexicographically least free base, so whenever
    placing the cubes one by one with find_free_position succeeds, this
    returns that same layout.  A cube whose side equals an earlier one's
    only takes bases lexicographically above it: equal cubes can be
    relabelled into that order, and the one-by-one layout is already in
    it.
    """
    if d < 1 or any(c.cls.d != d for c in cubes):
        raise ValueError(f"need d >= 1 and resident cubes of dimension d, got d={d}")
    sides = [as_rational(x) for x in sides]
    bad = next((s for s in sides if not 0 < s <= 1), None)
    if bad is not None:
        raise ValueError(f"side must be in (0, 1], got {bad}")
    scale, boxes, ints = _int_boxes([c.base for c in cubes], [c.cls.side for c in cubes], sides, d)
    found = _joint_corners(boxes, scale, ints, d)
    return None if found is None else tuple(
        tuple(Fraction(v, scale) for v in base) for base in found
    )


def _joint_corners(
    boxes: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
    scale: int,
    ints: Sequence[int],
    d: int,
    node_cap: Optional[int] = None,
) -> Optional[list[tuple[int, ...]]]:
    """find_joint_positions on one integer grid: resident boxes as (lo, hi)
    int corners and incoming sides as ints over `scale` (the bin is
    [0, scale]^d), bases returned as ints over it.  Scaling every input by
    one factor scales every candidate and keeps every comparison, so the
    bases found are the same rationals at any common scale.

    Each cube's candidates per axis are computed once, as in
    find_joint_positions, with its floor: the last earlier cube of equal
    side.  Obstacles are kept as per-axis columns of lo and hi, seeded
    from the residents.  Cube j walks its candidate bases in lexicographic
    order, one axis at a time, carrying only the obstacles that still
    overlap it on every axis fixed so far.  A complete base draws one unit
    of `node_cap`, when set (SearchBudgetError once it is spent), and is
    then skipped if an obstacle remains or if it is not above the floor's
    base.  Otherwise it is pushed onto the columns and cube j + 1 is
    placed; if that fails, it is popped and the walk goes on.
    """
    los = [[lo[dim] for lo, _ in boxes] for dim in range(d)]
    his = [[hi[dim] for _, hi in boxes] for dim in range(d)]
    rests = [{0, *axis} for axis in his]
    steps = []  # (side, candidates per axis, floor) per cube
    floors: dict[int, int] = {}  # side -> last cube of that side so far
    for j, s in enumerate(ints):
        sums = {0}
        for other in ints[:j] + ints[j + 1 :]:
            sums |= {t + other for t in sums}
        limit = scale - s
        candidates = [
            sorted({r + t for t in sums for r in axis if 0 <= r + t <= limit})
            for axis in rests
        ]
        steps.append((s, candidates, floors.get(s)))
        floors[s] = j
    budget = None if node_cap is None else iter(range(node_cap))
    placed: list[tuple[int, ...]] = []
    last = d - 1

    def place(j: int) -> bool:
        """True once cubes j onward are placed among the columns."""
        return j == len(steps) or walk(j, 0, range(len(los[0])), ())

    def walk(j: int, dim: int, live: Sequence[int], prefix: tuple[int, ...]) -> bool:
        s, candidates, floor = steps[j]
        lo, hi = los[dim], his[dim]
        for v in candidates[dim]:
            top = v + s
            rest = [i for i in live if lo[i] < top and v < hi[i]]
            base = prefix + (v,)
            if dim < last:
                if walk(j, dim + 1, rest, base):
                    return True
                continue
            if budget is not None and next(budget, None) is None:
                raise SearchBudgetError(
                    "placement search exceeded its budget of candidate bases"
                )
            if rest or floor is not None and base <= placed[floor]:
                continue
            placed.append(base)
            for x, lo_d, hi_d in zip(base, los, his):
                lo_d.append(x)
                hi_d.append(x + s)
            if place(j + 1):
                return True
            for column in (*los, *his):
                column.pop()
            placed.pop()
        return False

    return placed if place(0) else None
