"""Bounded-space online packing: adversarial streams, a strict harness, a baseline.

`adversarial_instance` rearranges C copies of a typed single-bin packing U
into class-homogeneous segments.  Any algorithm restricted to M open bins
must then use at least (C/2) * w(U) bins, the result's `lower_bound`, while
the items trivially fit offline into C bins.  The default C and the
per-class floors are the regrouping model over the placed counts,
`packing.counts` (`grid_product`, `grid_bins`).  The harness replays a
stream against an algorithm and re-verifies every placement exactly, so a
completed run is a machine-checked certificate rather than a trusted
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from .geometry import (
    Bin,
    CubeClass,
    PlacedCube,
    as_rational,
    expect_type,
    format_rational,
    verify_bin,
)
from .languages import ClassCounts
from .packing import TypedPacking


# offline_certificate materializes at most this many bins
OFFLINE_BIN_CAP = 100_000


class InvalidScaleError(ValueError):
    """The requested stream scale breaks divisibility or the volume floor."""


class HarnessViolation(RuntimeError):
    """An algorithm broke the online contract; the message names the step."""


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True)
class Segment:
    """A run of `count` identical cubes of class k."""

    k: int
    count: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"class must be >= 2, got {self.k}")
        if self.count < 0:
            raise ValueError(f"segment count must be >= 0, got {self.count}")


@dataclass(frozen=True)
class Instance:
    """An ordered stream of cubes, grouped into class-homogeneous segments."""

    d: int
    epsilon: Fraction
    segments: Tuple[Segment, ...]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        eps = as_rational(self.epsilon)
        if eps <= 0:
            # the per-segment counting bound needs strictly oversized cubes
            raise ValueError(f"epsilon must be positive, got {eps}")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def total_items(self) -> int:
        return sum(seg.count for seg in self.segments)

    def cube_class(self, k: int) -> CubeClass:
        return CubeClass(k, self.epsilon, self.d)


def instance_to_dict(instance: Instance) -> dict:
    return {
        "d": instance.d,
        "epsilon": format_rational(instance.epsilon),
        "segments": [{"k": s.k, "count": s.count} for s in instance.segments],
    }


def instance_from_dict(payload: Mapping[str, object]) -> Instance:
    """Rebuild an instance; keys beyond d/epsilon/segments are ignored."""
    segments = tuple(
        Segment(expect_type(row["k"], int), expect_type(row["count"], int))
        for row in expect_type(payload["segments"], list)
    )
    return Instance(expect_type(payload["d"], int), as_rational(payload["epsilon"]), segments)


# ---------------------------------------------------------------------------
# adversarial stream generator


def _scale_bins(counts: ClassCounts, m: int, scale: int) -> Dict[int, int]:
    """Class -> its bin floor (scale/2)*n_k/(k-1)^d at this stream scale.

    Raises InvalidScaleError unless `scale` is even and positive, regroups
    its half into full grids of every class, and gives each class >= m bins.
    """
    if m < 1:
        raise ValueError(f"open-bin budget must be >= 1, got {m}")
    if scale < 2 or scale % 2 != 0:
        raise InvalidScaleError(f"scale must be a positive even integer, got {scale}")
    try:
        bins = counts.grid_bins(scale // 2)
    except ValueError as exc:
        raise InvalidScaleError(f"scale {scale}: {exc}") from None
    for k, n in bins.items():
        if n < m:
            raise InvalidScaleError(
                f"scale {scale}: class {k} contributes {n} bins, below the "
                f"open-bin budget {m}"
            )
    return bins


@dataclass(frozen=True)
class AdversaryResult:
    """A generated stream plus the certificates that make it interesting."""

    instance: Instance
    m: int
    scale: int
    lower_bound: int
    offline_bin_count: int
    per_segment_lower_bounds: Tuple[int, ...]


def adversarial_instance(
    packing: TypedPacking,
    m: int,
    *,
    scale: Optional[int] = None,
    order: str = "ascending",
) -> AdversaryResult:
    """Rearrange `scale` copies of the packing into class-homogeneous segments.

    The stream packs offline into `scale` bins, the copies themselves.  Yet
    every algorithm that keeps at most `m` bins open needs lower_bound =
    (scale/2) * w(U) bins.  The class-k segment holds scale*nu_k cubes and
    a bin holds at most (k-1)^d of them, so the segment fills
    B_k = scale*nu_k/(k-1)^d bins.  At most m of those were open before it,
    so it opens at least B_k - m >= B_k/2 new bins, because B_k/2 >= m.
    Summing B_k/2 over the segments gives (scale/2) * w(U).

    The default scale C = 2*M*N, N = prod_k (k-1)^d, is the paper's.  A
    custom scale must be even and keep each per-class floor integral and
    >= m, else InvalidScaleError.
    """
    if order not in ("ascending", "descending"):
        raise ValueError(f"segment order must be ascending or descending, got {order!r}")
    if scale is None:
        scale = 2 * m * packing.counts.grid_product()
    bins = _scale_bins(packing.counts, m, scale)
    ks = tuple(sorted(packing.nu, reverse=order == "descending"))
    segments = tuple(Segment(k, scale * packing.nu[k]) for k in ks)
    instance = Instance(packing.d, packing.epsilon, segments)
    per_segment = tuple(bins[k] for k in ks)
    return AdversaryResult(instance, m, scale, sum(per_segment), scale, per_segment)


def offline_certificate(packing: TypedPacking, scale: int) -> Tuple[Bin, ...]:
    """The companion packing: `scale` verbatim copies of the single bin.

    The stream is a rearrangement of exactly these cubes, so the tuple
    witnesses an offline packing into `scale` bins.  The representative is
    re-verified here; the copies are the same immutable value.
    """
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    if scale > OFFLINE_BIN_CAP:
        raise ValueError(
            f"refusing to materialize {scale} bins (cap {OFFLINE_BIN_CAP})"
        )
    check = verify_bin(packing.bin)
    if not check:
        raise HarnessViolation(f"offline certificate bin failed verification: {check}")
    return (packing.bin,) * scale


# ---------------------------------------------------------------------------
# harness


@dataclass(frozen=True)
class Decision:
    """One step of an online algorithm.

    bin_id, an int, names an open bin; None opens a fresh bin.  `close`, a
    set of int ids, names open bins to retire after the placement;
    close_target additionally retires the bin just placed into (needed when
    the target is the fresh bin, whose id the algorithm cannot know yet).
    """

    bin_id: Optional[int]
    base: Tuple
    close: frozenset = frozenset()
    close_target: bool = False


@dataclass(frozen=True)
class PlacementRecord:
    k: int
    bin_id: int
    base: Tuple[Fraction, ...]


@dataclass(frozen=True)
class RatioReport:
    """Bins used by the run against the two offline anchors."""

    bins_used: int
    opt_upper_bound: int
    certified_lower_bound: int

    def __post_init__(self) -> None:
        if self.opt_upper_bound < 1:
            raise ValueError(
                f"offline bin count must be >= 1, got {self.opt_upper_bound}"
            )
        if self.certified_lower_bound > self.bins_used:
            raise ValueError(
                f"counting bound {self.certified_lower_bound} exceeds the "
                f"observed {self.bins_used} bins: the run or the bound is wrong"
            )

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.bins_used, self.opt_upper_bound)


@dataclass(frozen=True)
class RunResult:
    """Full trace of a harness run; every placement was re-verified exactly."""

    bins_used: int
    open_bin_ids: Tuple[int, ...]
    closed_bin_ids: Tuple[int, ...]
    per_segment_new_bins: Tuple[int, ...]
    placements: Tuple[PlacementRecord, ...]  # item i's placement at index i
    report: Optional[RatioReport] = None


def _violation(item_index: int, k: int, what: str) -> HarnessViolation:
    return HarnessViolation(f"item {item_index} (class {k}): {what}")


def run_bounded_space(
    algorithm,
    instance: Instance,
    m: int,
    *,
    opt_upper_bound: Optional[int] = None,
    certified_lower_bound: Optional[int] = None,
) -> RunResult:
    """Replay the stream against `algorithm` under the M-open-bins rule.

    The algorithm must expose decide(cube_class, open_bins) -> Decision and
    may expose placed(item_index, k, bin_id, base) to learn the id assigned
    to a fresh bin.  open_bins is one read-only view of the open bins for
    the whole run.  Nothing the algorithm claims is trusted: each decision
    must be a Decision whose bin id is an int or None, whose close is a
    set of int ids and whose close_target is a bool; every placement is
    checked by verify_bin on the whole bin it lands in, closed bins are
    sealed forever, and the open count is audited after each step.  A
    broken rule raises HarnessViolation naming the step "item N (class k)".
    """
    if m < 1:
        raise ValueError(f"open-bin budget must be >= 1, got {m}")
    open_bins: Dict[int, Bin] = {}
    view = MappingProxyType(open_bins)
    closed_ids: list[int] = []
    placements: list[PlacementRecord] = []
    per_segment = [0] * len(instance.segments)
    next_id = 0
    item_index = 0
    notify = getattr(algorithm, "placed", None)
    empty = Bin(instance.d)
    for seg_idx, seg in enumerate(instance.segments):
        k = seg.k
        cls = instance.cube_class(k)
        for _ in range(seg.count):
            decision = algorithm.decide(cls, view)
            if not isinstance(decision, Decision):
                raise _violation(item_index, k, f"decide returned "
                                 f"{type(decision).__name__}, not a Decision")
            bin_id, close, close_target = decision.bin_id, decision.close, decision.close_target
            if not isinstance(close, (set, frozenset)) or not all(
                    type(cid) is int for cid in close):
                raise _violation(item_index, k, f"close must be a set of int bin ids, "
                                 f"got {close!r}")
            if type(close_target) is not bool:
                raise _violation(item_index, k, f"close_target must be a bool, "
                                 f"got {close_target!r}")
            if bin_id is None:
                bin_id = next_id
                next_id += 1
                per_segment[seg_idx] += 1
                target = empty
            elif type(bin_id) is not int:
                raise _violation(item_index, k, f"bin id must be an int or None, "
                                 f"got {bin_id!r}")
            elif bin_id in open_bins:
                target = open_bins[bin_id]
            else:
                raise _violation(item_index, k,
                                 f"placement into bin {bin_id}, which is not open")
            try:
                cube = PlacedCube(cls, decision.base)
            except (TypeError, ValueError) as exc:
                raise _violation(item_index, k, f"malformed base, {exc}") from exc
            updated = target.with_cube(cube)
            check = verify_bin(updated)
            if not check:
                raise _violation(item_index, k, f"invalid placement, {check}")
            open_bins[bin_id] = updated
            if close or close_target:
                to_close = set(close)
                if close_target:
                    to_close.add(bin_id)
                for cid in to_close:
                    if cid not in open_bins:
                        raise _violation(item_index, k,
                                         f"close of bin {cid}, which is not open")
                    del open_bins[cid]
                    closed_ids.append(cid)
            if len(open_bins) > m:
                raise _violation(item_index, k,
                                 f"{len(open_bins)} bins left open, budget is {m}")
            base = cube.base
            placements.append(PlacementRecord(k, bin_id, base))
            if notify is not None:
                notify(item_index, k, bin_id, base)
            item_index += 1
    report = None
    if opt_upper_bound is not None and certified_lower_bound is not None:
        report = RatioReport(next_id, opt_upper_bound, certified_lower_bound)
    return RunResult(
        bins_used=next_id,
        open_bin_ids=tuple(sorted(open_bins)),
        closed_bin_ids=tuple(closed_ids),
        per_segment_new_bins=tuple(per_segment),
        placements=tuple(placements),
        report=report,
    )


# ---------------------------------------------------------------------------
# baseline algorithm


@dataclass
class _Slot:
    bin_id: Optional[int]
    count: int = 0
    last_used: int = -1


class ClassHarmonicBaseline:
    """One open bin per recently seen class, filled on the class grid.

    A class-k bin takes cubes on the grid H_k until it holds (k-1)^d of
    them, then closes.  Its j-th cube sits at coords[i_0], ..., coords[i_{d-1}],
    where i_0, i_1, ... are the base-(k-1) digits of j, axis 0 least
    significant, and coords[i] = i*(1+eps)/k.  Each class's coords and grid
    size are built once, by _grid, which also refuses eps > 1/(k-1), where
    a grid row would overrun the bin; a base is then d lookups in coords,
    with no rational arithmetic per item.  Opening a bin for an unseen class
    beyond the budget evicts the least recently used open bin.
    Deliberately naive: it exists to exercise the harness, not to be
    competitive.
    """

    def __init__(self, m: int) -> None:
        if m < 1:
            raise ValueError(f"open-bin budget must be >= 1, got {m}")
        self.m = m
        self._slots: Dict[int, _Slot] = {}
        # k -> (cls, coords, grid size) of the class last seen with index k
        self._grids: Dict[int, Tuple[CubeClass, Tuple[Fraction, ...], int]] = {}

    def _grid(self, cls: CubeClass) -> Tuple[CubeClass, Tuple[Fraction, ...], int]:
        """(cls, coords, (k-1)^d) for class cls, built on its first use."""
        grid = self._grids.get(cls.k)
        if grid is None or grid[0] != cls:
            if cls.epsilon > Fraction(1, cls.k - 1):
                raise ValueError(
                    f"grid fill needs epsilon <= 1/(k-1); got {cls.epsilon} at k={cls.k}"
                )
            coords = tuple(i * cls.side for i in range(cls.k - 1))
            grid = self._grids[cls.k] = (cls, coords, ClassCounts.grid_size(cls.k, cls.d))
        return grid

    @staticmethod
    def _grid_base(coords: Tuple[Fraction, ...], d: int, index: int) -> Tuple[Fraction, ...]:
        """The index-th point of coords^d, axis 0 the least significant digit."""
        n = len(coords)
        base = []
        for _ in range(d):
            index, digit = divmod(index, n)
            base.append(coords[digit])
        return tuple(base)

    def decide(self, cls: CubeClass, open_bins: Mapping[int, Bin]) -> Decision:
        _, coords, cap = self._grid(cls)
        slot = self._slots.get(cls.k)
        if slot is not None and slot.count < cap:
            return Decision(
                slot.bin_id,
                self._grid_base(coords, cls.d, slot.count),
                close_target=slot.count + 1 == cap,
            )
        close: frozenset = frozenset()
        if len(self._slots) >= self.m:
            # eviction is committed here; a harness rejection aborts the run
            lru = min(self._slots, key=lambda k: self._slots[k].last_used)
            close = frozenset({self._slots.pop(lru).bin_id})
        return Decision(None, self._grid_base(coords, cls.d, 0), close, close_target=cap == 1)

    def placed(self, item_index: int, k: int, bin_id: int, base) -> None:
        slot = self._slots.get(k)
        if slot is None or slot.bin_id != bin_id:
            slot = _Slot(bin_id)
            self._slots[k] = slot
        slot.count += 1
        slot.last_used = item_index
        if slot.count >= self._grids[k][2]:
            del self._slots[k]
