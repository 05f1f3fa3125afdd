"""Exact rational geometry for open hypercubes inside the unit bin.

Every coordinate, side length and volume at the API is a
`fractions.Fraction`; floats are rejected at the boundary so no rounding
can sneak into a correctness path.  Inside, verify_bin and the placement
searches scale the rationals they compare onto one integer grid and
compare ints, which is exact and far cheaper.  verify_bin also reads the
lattice the constructions place on: two cubes are compared only when
they share the interval on every axis whose intervals are disjoint.
Cubes are open boxes: two cubes that merely share a boundary facet
count as disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby, islice
from math import lcm
from operator import lt
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


def format_rational(value: Rational) -> str:
    """Render a rational as the canonical "p/q" string used in JSON files."""
    q = as_rational(value)
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


def _placed(cls: CubeClass, base: tuple[Fraction, ...]) -> PlacedCube:
    """A PlacedCube without the checks of its constructor, for builders
    that take `base`, d Fractions, from their own tables."""
    cube = object.__new__(PlacedCube)
    object.__setattr__(cube, "cls", cls)
    object.__setattr__(cube, "base", base)
    return cube


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "cubes", tuple(self.cubes))
        for c in self.cubes:
            if c.cls.d != self.d:
                raise ValueError(
                    f"cube of dimension {c.cls.d} in {self.d}-dimensional bin"
                )

    def with_cube(self, cube: PlacedCube) -> "Bin":
        return Bin(self.d, self.cubes + (cube,))

    def __len__(self) -> int:
        return len(self.cubes)


@dataclass(frozen=True)
class BinVerification:
    """Outcome of an exact bin check; truthy iff the bin is valid."""

    containment_ok: bool
    disjoint_ok: bool
    cube_count: int
    bad_cube: Optional[int] = None
    offending_pair: Optional[tuple[int, int]] = None

    def __bool__(self) -> bool:
        return self.containment_ok and self.disjoint_ok


def _axis_intervals(cubes: Sequence[PlacedCube], dim: int):
    """(ids, intervals, firsts, scale) of the cubes on one axis: cube i
    lies on distinct interval ids[i], whose lowest cube is firsts[ids[i]].
    The intervals are scaled onto ints over the lcm of their denominators;
    comparisons never cross axes, so one scale per axis is exact."""
    by_value: dict[tuple[int, int, int, int], int] = {}
    ids: list[int] = []
    firsts: list[int] = []
    for idx, cube in enumerate(cubes):
        # the ints of the normalised base and side, read off the Fractions'
        # slots with no call per cube, name the interval and hash far faster
        lo, side = cube.base[dim], cube.cls.side
        key = (lo._numerator, lo._denominator, side._numerator, side._denominator)
        t = by_value.get(key)
        if t is None:
            t = by_value[key] = len(firsts)
            firsts.append(idx)
        ids.append(t)
    scale = lcm(*(q for _, lq, _, sq in by_value for q in (lq, sq)))
    intervals = [(p * (scale // q), p * (scale // q) + sp * (scale // sq))
                 for p, q, sp, sq in by_value]
    return ids, intervals, firsts, scale


def _lowest_overlap(members: list[int], loose) -> Optional[tuple[int, int]]:
    """Lowest pair of `members` (ascending cube indices) overlapping on every
    axis in `loose`, a list of (ids, intervals), or None.

    On each axis a member's big-int mask holds the members whose interval
    overlaps its own, itself included; ANDing its masks leaves those that
    overlap it on every axis.  The first member with a partner left has no
    lower one, so it and its lowest partner form the lowest pair.
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
        overlap = {}
        for t in local:
            lo, hi = intervals[t]
            overlap[t] = 0
            for (lo_u, hi_u), mask in masks:
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


def verify_bin(b: Bin) -> BinVerification:
    """Exact containment and pairwise-disjointness certificate for a bin.

    Works one axis at a time: the cubes are grouped by their interval on
    the axis (constructions place on a lattice, so an axis carries a
    handful of values), and each distinct interval is checked once
    against [0, 1].  Lattice-axis lemma: on an axis whose distinct
    intervals are pairwise disjoint, two cubes overlap iff they share the
    interval, as an open interval meets itself and no other.  Such an
    axis adds its interval id as one mixed-radix digit to a per-cube code,
    so cubes agree on every lattice axis iff their codes are equal.  Open
    boxes intersect iff they overlap on every axis, so each intersecting
    pair lies in one code group and is decided there on the loose axes
    alone.  When the codes all differ, as on the grids H_k and on most
    harness bins, no two cubes share a group and the bin is disjoint:
    sorting the codes and comparing neighbours decides it.  Otherwise one
    sort of the cubes brings the groups together.  The first cube out of
    the bin and the first offending pair (lowest indices) are reported for
    debugging; the lowest pair is the least of the groups' lowest pairs.
    """
    n = len(b.cubes)
    outside: list[int] = []  # lowest cube of each interval leaving [0, 1]
    codes, radix, loose = [0] * n, 1, []
    for dim in range(b.d):
        ids, intervals, firsts, scale = _axis_intervals(b.cubes, dim)
        outside += [firsts[t] for t, (lo, hi) in enumerate(intervals) if lo < 0 or hi > scale]
        ordered = sorted(intervals)
        if all(hi <= lo for (_, hi), (lo, _) in zip(ordered, ordered[1:])):
            codes = [code + radix * t for code, t in zip(codes, ids)]
            radix *= len(intervals)
        else:
            loose.append((ids, intervals))
    bad_cube = min(outside, default=None)
    ordered = sorted(codes)  # a sorted copy of the ints: no set table on big grids
    if all(map(lt, ordered, islice(ordered, 1, None))):
        return BinVerification(bad_cube is None, True, n, bad_cube)
    groups = (list(g) for _, g in groupby(sorted(range(n), key=codes.__getitem__),
                                          codes.__getitem__))
    pairs = [_lowest_overlap(members, loose) for members in groups if len(members) > 1]
    pair = min(filter(None, pairs), default=None)
    return BinVerification(bad_cube is None, pair is None, n, bad_cube, pair)


def occupied_volume(b: Bin) -> Fraction:
    """Total volume of the cubes in the bin, exactly."""
    counts: dict[CubeClass, int] = {}
    for cube in b.cubes:
        counts[cube.cls] = counts.get(cube.cls, 0) + 1
    return sum((cls.volume * cnt for cls, cnt in counts.items()), start=Fraction(0))


def _checked_side(side: Rational) -> Fraction:
    side = as_rational(side)
    if side <= 0 or side > 1:
        raise ValueError(f"side must be in (0, 1], got {side}")
    return side


class SearchBudgetError(RuntimeError):
    """A placement search examined more candidate bases than its budget."""


def _free_corner(
    boxes, s: int, candidates: Sequence[Sequence[int]], accept=None, budget=None
):
    """First base, in lexicographic order over the per-axis candidate lists,
    at which an int cube of side s overlaps none of the int boxes and which
    `accept` (when given) takes; None if there is none.

    One axis is fixed at a time, carrying only the boxes that still overlap
    the cube on every axis fixed so far.  `budget`, when given, is an
    iterator drawn once per complete base examined; SearchBudgetError
    is raised when it runs out.
    """
    last = len(candidates) - 1
    los = [[lo[dim] for lo, _ in boxes] for dim in range(last + 1)]
    his = [[hi[dim] for _, hi in boxes] for dim in range(last + 1)]

    def rec(dim: int, live: Sequence[int], prefix: tuple[int, ...]):
        lo, hi = los[dim], his[dim]
        for v in candidates[dim]:
            top = v + s
            rest = [i for i in live if lo[i] < top and v < hi[i]]
            base = prefix + (v,)
            if dim < last:
                found = rec(dim + 1, rest, base)
                if found is not None:
                    return found
                continue
            if budget is not None and next(budget, None) is None:
                raise SearchBudgetError(
                    "placement search exceeded its budget of candidate bases"
                )
            if not rest and (accept is None or accept(base)):
                return base
        return None

    return rec(0, range(len(boxes)), ())


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
    *,
    node_cap: Optional[int] = None,
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

    With `node_cap` set, SearchBudgetError is raised once the search
    has examined more than that many candidate bases over all cubes.
    """
    sides = [_checked_side(x) for x in sides]
    # one integer grid for every coordinate and side compared
    scale = lcm(*(x.denominator for x in sides),
                *{x.denominator for c in cubes for x in (c.cls.side, *c.base[:d])})

    def scaled(x: Fraction) -> int:
        return x.numerator * (scale // x.denominator)

    boxes = []
    for cube in cubes:
        lo = tuple(map(scaled, cube.base[:d]))
        boxes.append((lo, tuple(v + scaled(cube.cls.side) for v in lo)))
    found = _joint_corners(boxes, scale, list(map(scaled, sides)), d, node_cap)
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
    bases found are the same rationals at any common scale."""
    rests = [{0, *[hi[dim] for _, hi in boxes]} for dim in range(d)]
    axes = []
    for j, s in enumerate(ints):
        sums = {0}
        for other in ints[:j] + ints[j + 1 :]:
            sums |= {t + other for t in sums}
        limit = scale - s
        axes.append(
            [
                sorted({r + t for t in sums for r in axis if 0 <= r + t <= limit})
                for axis in rests
            ]
        )
    placed: list[tuple[int, ...]] = []
    budget = None if node_cap is None else iter(range(node_cap))
    if len(ints) == 1:
        # one cube, as in every insertion search: no floor, no backtracking,
        # and none of the closures below
        found = _free_corner(boxes, ints[0], axes[0], None, budget)
        return None if found is None else [found]

    def place(j: int, obstacles: list) -> bool:
        if j == len(ints):
            return True
        s = ints[j]
        floor = next((placed[i] for i in range(j - 1, -1, -1) if ints[i] == s), None)
        if j == len(ints) - 1:
            # the last cube needs no backtracking: its first free base
            # above the floor completes the layout
            above = None if floor is None else floor.__lt__
            found = _free_corner(obstacles, s, axes[j], above, budget)
            if found is not None:
                placed.append(found)
            return found is not None

        def accept(base: tuple[int, ...]) -> bool:
            if floor is not None and base <= floor:
                return False
            placed.append(base)
            if place(j + 1, obstacles + [(base, tuple(v + s for v in base))]):
                return True
            placed.pop()
            return False

        return _free_corner(obstacles, s, axes[j], accept, budget) is not None

    return placed if place(0, list(boxes)) else None
