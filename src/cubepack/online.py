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

    bin_id None opens a fresh bin.  `close` names open bins to retire after
    the placement; close_target additionally retires the bin just placed
    into (needed when the target is the fresh bin, whose id the algorithm
    cannot know yet).
    """

    bin_id: Optional[int]
    base: Tuple
    close: frozenset = frozenset()
    close_target: bool = False


@dataclass(frozen=True)
class PlacementRecord:
    item_index: int
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
    placements: Tuple[PlacementRecord, ...]
    report: Optional[RatioReport] = None


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
    to a fresh bin.  Nothing the algorithm claims is trusted: every placement
    is checked by verify_bin, closed bins are sealed forever, and the open
    count is audited after each step.
    """
    if m < 1:
        raise ValueError(f"open-bin budget must be >= 1, got {m}")
    open_bins: Dict[int, Bin] = {}
    closed_ids: list[int] = []
    placements: list[PlacementRecord] = []
    per_segment = [0] * len(instance.segments)
    next_id = 0
    item_index = 0
    notify = getattr(algorithm, "placed", None)
    for seg_idx, seg in enumerate(instance.segments):
        cls = instance.cube_class(seg.k)
        for _ in range(seg.count):
            step = f"item {item_index} (class {seg.k})"
            decision = algorithm.decide(cls, MappingProxyType(open_bins))
            if decision.bin_id is None:
                bin_id = next_id
                next_id += 1
                per_segment[seg_idx] += 1
                target = Bin(instance.d)
            else:
                bin_id = decision.bin_id
                if bin_id not in open_bins:
                    raise HarnessViolation(
                        f"{step}: placement into bin {bin_id}, which is not open"
                    )
                target = open_bins[bin_id]
            try:
                cube = PlacedCube(cls, decision.base)
            except (TypeError, ValueError) as exc:
                raise HarnessViolation(f"{step}: malformed base, {exc}") from exc
            updated = target.with_cube(cube)
            base = cube.base
            check = verify_bin(updated)
            if not check:
                raise HarnessViolation(f"{step}: invalid placement, {check}")
            open_bins[bin_id] = updated
            to_close = set(decision.close)
            if decision.close_target:
                to_close.add(bin_id)
            for cid in to_close:
                if cid not in open_bins:
                    raise HarnessViolation(
                        f"{step}: close of bin {cid}, which is not open"
                    )
                del open_bins[cid]
                closed_ids.append(cid)
            if len(open_bins) > m:
                raise HarnessViolation(
                    f"{step}: {len(open_bins)} bins left open, budget is {m}"
                )
            placements.append(PlacementRecord(item_index, seg.k, bin_id, base))
            if notify is not None:
                notify(item_index, seg.k, bin_id, base)
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

    A class-k bin takes cubes at grid bases i*(1+eps)/k until it holds
    (k-1)^d of them, then closes.  Opening a bin for an unseen class beyond
    the budget evicts the least recently used open bin.  Deliberately naive:
    it exists to exercise the harness, not to be competitive.
    """

    def __init__(self, m: int) -> None:
        if m < 1:
            raise ValueError(f"open-bin budget must be >= 1, got {m}")
        self.m = m
        self._slots: Dict[int, _Slot] = {}

    @staticmethod
    def _grid_base(cls: CubeClass, index: int) -> Tuple[Fraction, ...]:
        if cls.epsilon > Fraction(1, cls.k - 1):
            raise ValueError(
                f"grid fill needs epsilon <= 1/(k-1); got {cls.epsilon} at k={cls.k}"
            )
        digits = []
        rest = index
        for _ in range(cls.d):
            digits.append(rest % (cls.k - 1))
            rest //= cls.k - 1
        return tuple(digit * cls.side for digit in digits)

    def decide(self, cls: CubeClass, open_bins: Mapping[int, Bin]) -> Decision:
        cap = ClassCounts.grid_size(cls.k, cls.d)
        slot = self._slots.get(cls.k)
        if slot is not None and slot.count < cap:
            return Decision(
                slot.bin_id,
                self._grid_base(cls, slot.count),
                close_target=slot.count + 1 == cap,
            )
        close: frozenset = frozenset()
        if len(self._slots) >= self.m:
            # eviction is committed here; a harness rejection aborts the run
            lru = min(self._slots, key=lambda k: self._slots[k].last_used)
            close = frozenset({self._slots.pop(lru).bin_id})
        return Decision(None, self._grid_base(cls, 0), close, close_target=cap == 1)

    def placed(self, item_index: int, k: int, bin_id: int, base) -> None:
        slot = self._slots.get(k)
        if slot is None or slot.bin_id != bin_id:
            slot = _Slot(bin_id)
            self._slots[k] = slot
        slot.count += 1
        slot.last_used = item_index
        cap = ClassCounts.grid_size(k, len(base))
        if slot.count >= cap:
            del self._slots[k]
