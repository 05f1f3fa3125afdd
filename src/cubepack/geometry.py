"""Exact rational geometry for open hypercubes inside the unit bin.

Every coordinate, side length and volume at the API is a
`fractions.Fraction`; floats are rejected at the boundary so no rounding
can sneak into a correctness path.  Inside, verify_bin and the placement
searches scale the rationals they compare onto one integer grid and
compare ints, which is exact and far cheaper.  Cubes are open boxes: two
cubes that merely share a boundary facet count as disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
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


@dataclass(frozen=True)
class PlacedCube:
    """A class cube anchored at an exact base corner.

    Construction validates shape only; containment in the unit bin is
    policed by verify_bin so that ill-formed inputs (e.g. loaded from a
    hostile JSON file) can still be inspected and reported.
    """

    cls: CubeClass
    base: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        base = tuple(as_rational(x) for x in self.base)
        object.__setattr__(self, "base", base)
        if len(base) != self.cls.d:
            raise ValueError(
                f"base has {len(base)} coordinates for a {self.cls.d}-dimensional cube"
            )


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


def _member_masks(groups: Sequence[Sequence[int]], n: int) -> list[int]:
    # One big-int bitmask of cube indices per distinct interval.
    masks = []
    for members in groups:
        buf = bytearray((n + 7) // 8)
        for idx in members:
            buf[idx >> 3] |= 1 << (idx & 7)
        masks.append(int.from_bytes(bytes(buf), "little"))
    return masks


def verify_bin(b: Bin) -> BinVerification:
    """Exact containment and pairwise-disjointness certificate for a bin.

    Works one axis at a time.  The cubes are grouped by their interval on
    the axis (packings built from class grids reuse a handful of interval
    values), and the distinct intervals are scaled onto integers over the
    lcm of their denominators: comparisons never cross axes, so one scale
    per axis is exact.  Each distinct interval is checked once against
    [0, 1], and the overlaps between distinct intervals are decided once;
    each cube then gets a big-int mask of the cubes overlapping it on the
    axis.  ANDing a cube's d masks leaves exactly the cubes that overlap
    it on every axis, i.e. its open-box intersectors.  The first cube out
    of the bin and the first offending pair (lowest indices) are reported
    for debugging.
    """
    n = len(b.cubes)
    outside: list[int] = []  # first member of each interval leaving [0, 1]
    per_dim_overlap: list[list[int]] = []
    per_dim_ids: list[list[int]] = []
    for dim in range(b.d):
        key_to_id: dict[tuple[int, int, int, int], int] = {}
        ids: list[int] = []
        groups: list[list[int]] = []
        for idx, cube in enumerate(b.cubes):
            # Keyed by the ints of the normalised base and side, which
            # hash far faster than Fractions and name the same interval.
            lo, side = cube.base[dim], cube.cls.side
            key = (lo.numerator, lo.denominator, side.numerator, side.denominator)
            t = key_to_id.get(key)
            if t is None:
                t = key_to_id[key] = len(groups)
                groups.append([])
            ids.append(t)
            groups[t].append(idx)
        scale = lcm(*(q for key in key_to_id for q in key[1::2]))
        intervals = []
        for t, (p, q, sp, sq) in enumerate(key_to_id):
            lo = p * (scale // q)
            hi = lo + sp * (scale // sq)
            intervals.append((lo, hi))
            if lo < 0 or hi > scale:
                outside.append(groups[t][0])
        member = _member_masks(groups, n)
        overlap = []
        for lo_i, hi_i in intervals:
            acc = 0  # picks up the interval's own members too
            for (lo_j, hi_j), mask in zip(intervals, member):
                if lo_i < hi_j and lo_j < hi_i:
                    acc |= mask
            overlap.append(acc)
        per_dim_overlap.append(overlap)
        per_dim_ids.append(ids)

    bad_cube = min(outside, default=None)
    containment_ok = bad_cube is None
    for idx in range(n):
        acc = per_dim_overlap[0][per_dim_ids[0][idx]]
        for dim in range(1, b.d):
            acc &= per_dim_overlap[dim][per_dim_ids[dim][idx]]
            if acc == 0:
                break
        extra = acc & ~(1 << idx)
        if extra:
            # no lower cube had an intersector, so the partner is above idx
            partner = (extra & -extra).bit_length() - 1
            return BinVerification(containment_ok, False, n, bad_cube, (idx, partner))
    return BinVerification(containment_ok, True, n, bad_cube, None)


def occupied_volume(b: Bin) -> Fraction:
    """Total volume of the cubes in the bin, exactly."""
    counts: dict[CubeClass, int] = {}
    for cube in b.cubes:
        counts[cube.cls] = counts.get(cube.cls, 0) + 1
    return sum((cls.volume * cnt for cls, cnt in counts.items()), start=Fraction(0))


def _int_boxes(
    cubes: Sequence[PlacedCube], d: int, *extra: Fraction
) -> tuple[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Scale cubes onto one integer grid: (D, [(lo, hi), ...]).

    D is the lcm of the denominators of `extra` and of every cube's first
    d base coordinates and side.  Each cube becomes its base corner `lo`
    and top corner `hi` times D, as ints, so that comparisons between any
    of these values are exact integer comparisons.
    """
    dens = {x.denominator for x in extra}
    for cube in cubes:
        dens.add(cube.cls.side.denominator)
        dens.update(x.denominator for x in cube.base[:d])
    scale = lcm(*dens)
    mult = {q: scale // q for q in dens}
    boxes = []
    for cube in cubes:
        side = cube.cls.side
        s = side.numerator * mult[side.denominator]
        lo = tuple(x.numerator * mult[x.denominator] for x in cube.base[:d])
        boxes.append((lo, tuple(v + s for v in lo)))
    return scale, boxes


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
    d = len(candidates)
    los = [[lo[dim] for lo, _ in boxes] for dim in range(d)]
    his = [[hi[dim] for _, hi in boxes] for dim in range(d)]

    def rec(dim: int, live: list[int], prefix: tuple[int, ...]):
        if dim == d:
            if budget is not None and next(budget, None) is None:
                raise SearchBudgetError(
                    "placement search exceeded its budget of candidate bases"
                )
            if live or (accept is not None and not accept(prefix)):
                return None
            return prefix
        lo, hi = los[dim], his[dim]
        for v in candidates[dim]:
            top = v + s
            found = rec(
                dim + 1,
                [i for i in live if lo[i] < top and v < hi[i]],
                prefix + (v,),
            )
            if found is not None:
                return found
        return None

    return rec(0, list(range(len(boxes))), ())


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
    scale, boxes = _int_boxes(cubes, d, *sides)
    ints = [x.numerator * (scale // x.denominator) for x in sides]
    rests = [{0, *(hi[dim] for _, hi in boxes)} for dim in range(d)]
    axes = []
    for j, s in enumerate(ints):
        sums = {0}
        for other in ints[:j] + ints[j + 1 :]:
            sums |= {t + other for t in sums}
        limit = scale - s
        axes.append(
            [
                sorted({r + t for r in axis for t in sums if 0 <= r + t <= limit})
                for axis in rests
            ]
        )
    placed: list[tuple[int, ...]] = []
    budget = None if node_cap is None else iter(range(node_cap))

    def place(j: int, obstacles: list) -> bool:
        if j == len(ints):
            return True
        s = ints[j]
        floor = next((placed[i] for i in range(j - 1, -1, -1) if ints[i] == s), None)

        def accept(base: tuple[int, ...]) -> bool:
            if floor is not None and base <= floor:
                return False
            placed.append(base)
            if place(j + 1, obstacles + [(base, tuple(v + s for v in base))]):
                return True
            placed.pop()
            return False

        return _free_corner(obstacles, s, axes[j], accept, budget) is not None

    if not place(0, boxes):
        return None
    return tuple(tuple(Fraction(v, scale) for v in base) for base in placed)
