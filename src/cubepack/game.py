"""Selfish cube packing: costs, improving moves, dynamics, equilibria, anarchy.

Each cube is a player whose cost is its volume divided by the occupied
volume of its bin; the social cost is the number of used bins.  Because
insertion cost depends only on volumes, never on positions, every move
and coalition search runs an exact prefilter on the config's integer
volumes before touching geometry.  Every geometric question goes through
one memoized joint placement search, keyed by what decides its answer:
the content of the residents kept (the multiset of their (class, base)
pairs) and the incoming classes in one fixed order.  An insertion keeps
the whole target bin, a repack re-layout keeps nothing, and a coalition
target keeps what its members leave behind.  Bins of equal content share
every entry, and best-response dynamics keeps one memo for its whole run.
Bin permutations that preserve content preserve every cost and layout, so
the coalition search checks one coalition per orbit of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, islice
from math import lcm
from typing import (
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .geometry import (
    Bin,
    CubeClass,
    PlacedCube,
    SearchBudgetError,
    as_rational,
    expect_type,
    find_joint_positions,
    format_rational,
    verify_bin,
)
from .packing import TypedPacking, build_homogeneous

FEASIBILITY_NOTE = (
    "exact: insertion places one cube, or a coalition's cubes jointly, by a "
    "complete search with the residents kept in place; repack re-lays the "
    "whole target bin by a complete search"
)


# Default cap on the copies N of the source bin in an anarchy instance.
COPIES_CAP = 4096

# Candidate bases one repack re-layout search may examine before it gives up.
REPACK_NODE_CAP = 200_000
# Items, residents plus the mover, one repack re-layout may place.
REPACK_ITEM_CAP = 8
# Gaining assignments one strong-Nash coalition search may screen.
COALITION_ASSIGNMENT_CAP = 5_000_000


# Placement memo: content of the residents kept -> incoming class indices
# -> (class, base) per incoming cube, or None; see _place.
_Memo = Dict[tuple, Dict[tuple, Optional[tuple]]]


class RepackSearchError(RuntimeError):
    """Exhaustive re-layout exceeded the item cap or its search budget."""


class CoalitionSearchError(RuntimeError):
    """Coalition enumeration exceeded the configured assignment budget."""


# ---------------------------------------------------------------------------
# configurations


@dataclass(frozen=True)
class GameItem:
    item_id: int
    cls: CubeClass

    @property
    def volume(self) -> Fraction:
        return self.cls.volume

    @property
    def side(self) -> Fraction:
        return self.cls.side


@dataclass(frozen=True)
class _VolumeModel:
    """A config's volumes as exact integers over one common denominator.

    Classes are indexed in one fixed order, by (-side, k): larger cubes
    first, and k tells apart the classes of one side.  A class of side s
    fits at most floor(1/s)^d disjoint open cubes into one bin, whatever
    else sits there (interval-graph colouring per axis).
    """

    scale: int
    ivol: Dict[int, int]  # item id -> volume * scale
    cid: Dict[int, int]  # item id -> class index
    classes: List[CubeClass]  # class index -> class
    capacity: List[int]  # class index -> floor(1/side)^d
    iocc: Dict[int, int]  # bin -> occupied volume * scale
    members: Dict[int, List[int]]  # bin -> item ids, in item order
    census: Dict[int, List[int]]  # bin -> resident count per class index

    def regrouped(
        self,
        items: Sequence[GameItem],
        assignment: Mapping[int, int],
        touched: Collection[int],
    ) -> "_VolumeModel":
        """The model of `assignment`, given that it differs from this
        model's only in which items sit in the bins `touched`.  The
        per-item data is shared, and only the touched bins are recomputed;
        a touched bin left empty drops out."""
        fresh: Dict[int, List[int]] = {b: [] for b in touched}
        for it in items:
            ids = fresh.get(assignment[it.item_id])
            if ids is not None:
                ids.append(it.item_id)
        iocc, members, census = dict(self.iocc), dict(self.members), dict(self.census)
        for b, ids in fresh.items():
            if not ids:
                for table in (iocc, members, census):
                    table.pop(b, None)
                continue
            count = [0] * len(self.classes)
            for i in ids:
                count[self.cid[i]] += 1
            iocc[b] = sum(self.ivol[i] for i in ids)
            members[b], census[b] = ids, count
        return _VolumeModel(
            self.scale, self.ivol, self.cid, self.classes, self.capacity,
            iocc, members, census,
        )


@dataclass(frozen=True)
class GameConfig:
    """Items plus who-sits-where; every used bin must pass verify_bin."""

    d: int
    items: Tuple[GameItem, ...]
    assignment: Dict[int, int]
    positions: Dict[int, Tuple[Fraction, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        ids = [it.item_id for it in self.items]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate item ids")
        for it in self.items:
            if it.cls.d != self.d:
                raise ValueError(
                    f"item {it.item_id} has dimension {it.cls.d}, config is {self.d}"
                )
            if it.item_id not in self.assignment:
                raise ValueError(f"item {it.item_id} has no bin")
            if it.item_id not in self.positions:
                raise ValueError(f"item {it.item_id} has no position")
        pos = {i: tuple(as_rational(x) for x in p) for i, p in self.positions.items()}
        object.__setattr__(self, "positions", pos)

    @cached_property
    def _by_id(self) -> Dict[int, GameItem]:
        return {it.item_id: it for it in self.items}

    def item(self, item_id: int) -> GameItem:
        return self._by_id[item_id]

    @cached_property
    def bins_map(self) -> Dict[int, Bin]:
        grouped: Dict[int, List[PlacedCube]] = {}
        for it in self.items:
            b = self.assignment[it.item_id]
            grouped.setdefault(b, []).append(PlacedCube(it.cls, self.positions[it.item_id]))
        return {b: Bin(self.d, tuple(cubes)) for b, cubes in grouped.items()}

    @cached_property
    def _volumes(self) -> _VolumeModel:
        order = sorted({it.cls for it in self.items}, key=lambda c: (-c.side, c.k))
        index = {c: i for i, c in enumerate(order)}
        scale = lcm(*(c.volume.denominator for c in index))
        cid = {it.item_id: index[it.cls] for it in self.items}
        vols = [c.volume.numerator * (scale // c.volume.denominator) for c in index]
        caps = [(c.side.denominator // c.side.numerator) ** self.d for c in index]
        ivol = {i: vols[c] for i, c in cid.items()}
        empty = _VolumeModel(scale, ivol, cid, order, caps, {}, {}, {})
        return empty.regrouped(self.items, self.assignment, set(self.assignment.values()))

    @cached_property
    def _contents(self) -> Dict[int, Tuple[Tuple[int, Tuple[Fraction, ...]], ...]]:
        """Bin -> its content: the sorted (class index, base) pairs of its
        cubes.  A sorted tuple, not a set, so coincident cubes stay two."""
        return {b: self._content(b) for b in self._volumes.members}

    def _content(self, bin_id: int) -> Tuple[Tuple[int, Tuple[Fraction, ...]], ...]:
        m = self._volumes
        return tuple(sorted((m.cid[i], self.positions[i]) for i in m.members[bin_id]))

    @cached_property
    def _occupied(self) -> Dict[int, Fraction]:
        m = self._volumes
        return {b: Fraction(v, m.scale) for b, v in m.iocc.items()}

    def occupied(self, bin_id: int) -> Fraction:
        return self._occupied[bin_id]

    def item_cost(self, item_id: int) -> Fraction:
        it = self.item(item_id)
        return it.volume / self._occupied[self.assignment[item_id]]

    def social_cost(self) -> int:
        """Number of used bins; cross-checked against the exact cost sum."""
        bins = len(self.bins_map)
        total = sum((self.item_cost(it.item_id) for it in self.items), Fraction(0))
        if total != bins:
            raise AssertionError(
                f"cost conservation broken: costs sum to {total}, {bins} bins used"
            )
        return bins

    def validate(self) -> None:
        for b, bn in sorted(self.bins_map.items()):
            check = verify_bin(bn)
            if not check:
                raise ValueError(f"bin {b} is invalid: {check}")

    def with_moves(
        self, updates: Mapping[int, Tuple[int, Tuple[Fraction, ...]]]
    ) -> "GameConfig":
        """New config with the given items reassigned to (bin, base).

        The new config inherits this one's item lookup, volume model and
        bin contents, where this one has built them: only the bins a moved
        item leaves or enters are recomputed.
        """
        assignment = dict(self.assignment)
        positions = dict(self.positions)
        for item_id, (bin_id, base) in updates.items():
            if item_id not in assignment:
                raise ValueError(f"unknown item {item_id}")
            assignment[item_id] = bin_id
            positions[item_id] = tuple(base)
        new = GameConfig(self.d, self.items, assignment, positions)
        cached, carried = self.__dict__, new.__dict__
        if "_by_id" in cached:
            carried["_by_id"] = self._by_id
        if "_volumes" in cached:
            touched = {self.assignment[i] for i in updates} | {
                assignment[i] for i in updates
            }
            m = carried["_volumes"] = self._volumes.regrouped(
                self.items, assignment, touched
            )
            if "_contents" in cached:
                contents = {b: c for b, c in self._contents.items() if b not in touched}
                contents.update((b, new._content(b)) for b in touched if b in m.members)
                carried["_contents"] = contents
        return new


def config_from_bins(bins: Sequence[Bin]) -> GameConfig:
    """Number the cubes of the given bins 0.. and wrap them as a game state."""
    if not bins:
        raise ValueError("need at least one bin")
    d = bins[0].d
    items: List[GameItem] = []
    assignment: Dict[int, int] = {}
    positions: Dict[int, Tuple[Fraction, ...]] = {}
    next_id = 0
    for bin_id, bn in enumerate(bins):
        if bn.d != d:
            raise ValueError("mixed dimensions across bins")
        for cube in bn.cubes:
            items.append(GameItem(next_id, cube.cls))
            assignment[next_id] = bin_id
            positions[next_id] = cube.base
            next_id += 1
    return GameConfig(d, tuple(items), assignment, positions)


def homogeneous_mixture(
    classes: Sequence[int], d: int, epsilon
) -> GameConfig:
    """One full grid bin per class: (k-1)^d class-k cubes each."""
    ks = sorted(set(classes))
    if len(ks) != len(list(classes)):
        raise ValueError("classes must be distinct")
    return config_from_bins([build_homogeneous(k, d, epsilon).bin for k in ks])


def config_to_dict(config: GameConfig) -> dict:
    cubes = []
    for it in sorted(config.items, key=lambda x: x.item_id):
        cubes.append(
            {
                "id": it.item_id,
                "bin": config.assignment[it.item_id],
                "k": it.cls.k,
                "epsilon": format_rational(it.cls.epsilon),
                "base": [format_rational(x) for x in config.positions[it.item_id]],
            }
        )
    return {"d": config.d, "cubes": cubes}


def config_from_dict(payload: Mapping[str, object]) -> GameConfig:
    d = expect_type(payload["d"], int)
    items: List[GameItem] = []
    assignment: Dict[int, int] = {}
    positions: Dict[int, Tuple[Fraction, ...]] = {}
    for row in expect_type(payload["cubes"], list):
        item_id = expect_type(row["id"], int)
        cls = CubeClass(expect_type(row["k"], int), as_rational(row["epsilon"]), d)
        items.append(GameItem(item_id, cls))
        assignment[item_id] = expect_type(row["bin"], int)
        positions[item_id] = tuple(as_rational(x) for x in expect_type(row["base"], list))
    return GameConfig(d, tuple(items), assignment, positions)


# ---------------------------------------------------------------------------
# single-item moves


@dataclass(frozen=True)
class MoveProposal:
    """A strictly cost-decreasing migration of one item."""

    item_id: int
    source_bin: int
    target_bin: int
    mode: str
    cost_before: Fraction
    cost_after: Fraction
    base: Tuple[Fraction, ...]
    relayout: Optional[Tuple[Tuple[int, Tuple[Fraction, ...]], ...]] = None

    def __post_init__(self) -> None:
        if not self.cost_after < self.cost_before:
            raise ValueError(
                f"move must strictly decrease cost: {self.cost_before} -> "
                f"{self.cost_after}"
            )


def improving_moves(
    config: GameConfig,
    mode: str = "insertion",
    *,
    first_only: bool = False,
) -> Tuple[MoveProposal, ...]:
    """All strictly improving single-item migrations, deterministically ordered.

    A move to bin t improves the mover iff occupied(t) + volume exceeds the
    occupied volume of its current bin: cost never depends on positions, so
    this arithmetic filter is complete and geometry runs only on survivors.
    Disjoint open cubes in the unit bin have total volume at most 1, so a
    target whose occupied(t) + volume exceeds 1 is skipped without a search.
    Both tests run on the config's integer volumes.  Fresh bins are never
    targets; a lone item's cost of 1 cannot improve.
    """
    return _improving_moves(config, mode, first_only, {})


def _improving_moves(
    config: GameConfig,
    mode: str,
    first_only: bool,
    memo: _Memo,
) -> Tuple[MoveProposal, ...]:
    """improving_moves with the caller's placement memo; its keys name no
    bin or item, so one memo serves every config over the same items."""
    _check_mode(mode)
    candidates = _move_candidates(config, mode, memo)
    if first_only:
        candidates = islice(candidates, 1)
    return tuple(_proposal(config, mode, c) for c in candidates)


def _check_mode(mode: str) -> None:
    if mode not in ("insertion", "repack"):
        raise ValueError(f"unknown feasibility mode {mode!r}")


class _Candidate(NamedTuple):
    """A feasible improving move before its costs and bases are built."""

    item: GameItem
    source: int
    target: int
    joined: int  # occupied volume of the target after the move, times scale
    layout: tuple  # _place's answer: (class, base) per mover
    movers: Sequence[GameItem]  # the item, after the residents on a repack


def _move_candidates(config: GameConfig, mode: str, memo: _Memo) -> Iterator[_Candidate]:
    """The moves of improving_moves, lazily and in its order: item id, then
    target bin.  Each passes the gain and volume screens and then the
    memoized placement search; turn one into a MoveProposal by _proposal."""
    m = config._volumes
    targets = sorted(m.iocc)
    # a content is a long tuple: hash it once per target bin, not per probe
    tables: Dict[int, Dict[tuple, Optional[tuple]]] = {}
    for it in sorted(config.items, key=lambda x: x.item_id):
        src, v = config.assignment[it.item_id], m.ivol[it.item_id]
        for target in targets:
            joined = m.iocc[target] + v
            if target == src or not joined > m.iocc[src]:
                continue
            residents = m.members[target]
            if mode == "repack" and len(residents) + 1 > REPACK_ITEM_CAP:
                raise RepackSearchError(
                    f"bin {target} holds {len(residents)} items, repack cap "
                    f"is {REPACK_ITEM_CAP - 1} plus the mover"
                )
            if joined > m.scale:
                continue
            if mode == "insertion":
                kept, movers, cap = config._contents[target], [it], None
                if target not in tables:
                    tables[target] = memo.setdefault(kept, {})
                table = tables[target]
            else:
                # re-lay the whole bin: an empty bin takes residents plus mover
                movers = [config.item(i) for i in residents] + [it]
                kept, cap = (), REPACK_NODE_CAP
                table = memo.setdefault(kept, {})
            try:
                layout = _place(config, table, kept, movers, cap)
            except SearchBudgetError as exc:
                raise RepackSearchError(f"re-layout of bin {target}: {exc}") from exc
            if layout is not None:
                yield _Candidate(it, src, target, joined, layout, movers)


def _gain(m: _VolumeModel, c: _Candidate) -> Fraction:
    """cost_before - cost_after of the candidate's proposal."""
    before = m.iocc[c.source]
    return Fraction(m.ivol[c.item.item_id] * (c.joined - before), before * c.joined)


def _proposal(config: GameConfig, mode: str, c: _Candidate) -> MoveProposal:
    m, i = config._volumes, c.item.item_id
    assigned = _distribute(c.layout, c.movers)
    relayout = None if mode == "insertion" else tuple(sorted(assigned.items()))
    costs = (Fraction(m.ivol[i], m.iocc[c.source]), Fraction(m.ivol[i], c.joined))
    return MoveProposal(i, c.source, c.target, mode, *costs, assigned[i], relayout)


def _place(
    config: GameConfig,
    table: Dict[tuple, Optional[tuple]],
    kept: Tuple[Tuple[int, Tuple[Fraction, ...]], ...],
    incoming: Sequence[GameItem],
    node_cap: Optional[int] = None,
) -> Optional[Tuple[Tuple[CubeClass, Tuple[Fraction, ...]], ...]]:
    """(class, base) per incoming item, placed jointly among the resident
    cubes `kept` (a content: sorted (class index, base) pairs, () for an
    empty bin); None if they do not fit.

    The placement memo maps a content to its `table`, memo[kept], which
    maps the sorted incoming class indices to the answer.
    find_joint_positions is exact and complete, and its answer depends only
    on the residents and on the incoming sides in the order given.  Class
    indices follow (-side, k), so the sorted indices search the incoming
    classes in that one fixed order, and an entry depends on its key alone,
    whichever bin and items first asked for it.  Residents are built only
    on a miss.  Callers hand bases to items through _distribute.
    """
    m = config._volumes
    key = tuple(sorted(m.cid[it.item_id] for it in incoming))
    if key not in table:
        residents = [PlacedCube(m.classes[c], base) for c, base in kept]
        bases = find_joint_positions(
            residents, [m.classes[c].side for c in key], config.d, node_cap=node_cap
        )
        table[key] = None if bases is None else tuple(
            zip((m.classes[c] for c in key), bases)
        )
    return table[key]


def _searches(memo: _Memo) -> int:
    """Placement searches a memo holds: one per (kept, incoming) key."""
    return sum(len(table) for table in memo.values())


def _distribute(
    layout: Iterable[Tuple[CubeClass, Tuple[Fraction, ...]]],
    items: Sequence[GameItem],
) -> Dict[int, Tuple[Fraction, ...]]:
    """Hand the found bases back to concrete items, matching by cube class."""
    pool: Dict[CubeClass, List[Tuple[Fraction, ...]]] = {}
    for cls, base in layout:
        pool.setdefault(cls, []).append(base)
    assigned: Dict[int, Tuple[Fraction, ...]] = {}
    for it in sorted(items, key=lambda x: (-x.side, x.item_id)):
        assigned[it.item_id] = pool[it.cls].pop()
    return assigned


def apply_move(config: GameConfig, move: MoveProposal) -> GameConfig:
    updates: Dict[int, Tuple[int, Tuple[Fraction, ...]]] = {
        move.item_id: (move.target_bin, move.base)
    }
    if move.relayout is not None:
        for item_id, base in move.relayout:
            updates[item_id] = (move.target_bin, base)
    return config.with_moves(updates)


@dataclass(frozen=True)
class NashResult:
    is_nash: bool
    mode: str
    moves: Tuple[MoveProposal, ...]
    geometry_checks: int = 0  # placement searches run, memo hits not counted
    note: str = FEASIBILITY_NOTE

    def __bool__(self) -> bool:
        return self.is_nash


def is_nash(config: GameConfig, mode: str = "insertion") -> NashResult:
    """True iff no single item has a strictly improving migration."""
    memo: _Memo = {}
    moves = _improving_moves(config, mode, False, memo)
    return NashResult(not moves, mode, moves, _searches(memo))


# ---------------------------------------------------------------------------
# best-response dynamics


def potential(config: GameConfig) -> Tuple[Fraction, ...]:
    """Per-bin occupied volumes, sorted descending.

    Each improving move replaces two entries {occ(src), occ(tgt)} by
    {occ(src)-v, occ(tgt)+v} with occ(tgt)+v above both originals, so this
    vector strictly increases lexicographically; with volumes drawn from a
    finite set, dynamics must terminate.
    """
    return tuple(sorted(config._occupied.values(), reverse=True))


_POLICIES = ("first", "best", "random")


@dataclass(frozen=True)
class DynamicsResult:
    config: GameConfig
    steps: int
    applied: Tuple[MoveProposal, ...]
    status: str  # "nash" or "budget-exhausted"
    certificate: Optional[NashResult]
    geometry_checks: int = 0  # placement searches over the whole run


def best_response_dynamics(
    config: GameConfig,
    policy: str = "first",
    *,
    max_steps: int = 10_000,
    seed: int = 0,
    mode: str = "insertion",
) -> DynamicsResult:
    """Apply improving moves until none remain or the step budget runs out.

    Each step screens the moves of improving_moves and builds a proposal
    only for the one it applies: "first" takes the first, "random" draws
    one with the seeded generator, and "best" takes the largest cost drop,
    the lowest item id among equals, and else the first in move order.
    Every step shares one placement memo: moves keep the items, so the
    memo's keys (contents and class indices) mean the same in each config,
    and each config inherits its parent's volume model and contents.  The
    potential is checked on integer occupancies; over one common
    denominator they order exactly as potential() does.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    _check_mode(mode)
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    rng = random.Random(seed)
    applied: List[MoveProposal] = []
    current = config
    last_potential = sorted(current._volumes.iocc.values(), reverse=True)
    memo: _Memo = {}
    for _ in range(max_steps):
        searched = _searches(memo)
        candidates = _move_candidates(current, mode, memo)
        if policy == "first":
            chosen = next(candidates, None)
        else:
            pool = list(candidates)
            if not pool:
                chosen = None
            elif policy == "random":
                chosen = rng.choice(pool)
            else:
                m = current._volumes
                chosen = max(pool, key=lambda c: (_gain(m, c), -c.item.item_id))
        if chosen is None:
            current.validate()
            cert = NashResult(True, mode, (), _searches(memo) - searched)
            return DynamicsResult(
                current, len(applied), tuple(applied), "nash", cert, _searches(memo)
            )
        move = _proposal(current, mode, chosen)
        current = apply_move(current, move)
        applied.append(move)
        now = sorted(current._volumes.iocc.values(), reverse=True)
        if not now > last_potential:
            raise AssertionError(
                f"potential did not increase: {last_potential} -> {now} "
                f"(occupied volumes times {current._volumes.scale})"
            )
        last_potential = now
    current.validate()
    return DynamicsResult(
        current, len(applied), tuple(applied), "budget-exhausted", None, _searches(memo)
    )


# ---------------------------------------------------------------------------
# coalitions


@dataclass(frozen=True)
class CoalitionProposal:
    """A joint deviation in which every member strictly gains."""

    members: Tuple[int, ...]
    targets: Tuple[int, ...]
    bases: Tuple[Tuple[Fraction, ...], ...]
    costs_before: Tuple[Fraction, ...]
    costs_after: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for before, after in zip(self.costs_before, self.costs_after):
            if not after < before:
                raise ValueError("every coalition member must strictly improve")


@dataclass(frozen=True)
class StrongNashResult:
    is_strong_nash: bool
    max_coalition_size: int
    violation: Optional[CoalitionProposal]
    coalitions_checked: int
    assignments_checked: int
    geometry_checks: int = 0
    note: str = FEASIBILITY_NOTE

    def __bool__(self) -> bool:
        return self.is_strong_nash


def apply_coalition(config: GameConfig, proposal: CoalitionProposal) -> GameConfig:
    updates = {
        member: (target, base)
        for member, target, base in zip(
            proposal.members, proposal.targets, proposal.bases
        )
    }
    return config.with_moves(updates)


def is_strong_nash(config: GameConfig, max_coalition_size: int) -> StrongNashResult:
    """Exhaustive coalition search up to the size cap, smallest first.

    Coalitions in which some member keeps its bin reduce to the sub-coalition
    of actual movers (the outcome configuration is identical and movers are
    members too), so only all-mover coalitions are enumerated; members may
    not swap positions inside their current bins.

    Costs depend on the assignment alone: member i gains iff its target t_i
    ends up fuller than its source src_i is now.  Targets are assigned member
    by member, depth first, as a branch and bound on the config's integer
    volumes.  After a member is assigned, the subtree is cut when some
    assigned member i cannot gain even if every unassigned member joins t_i:

        occ(t_i) - out(t_i) + in(t_i) + rest <= occ(src_i),

    where out(t) is the volume the coalition takes out of t, in(t) the volume
    assigned into t so far and rest the volume still unassigned.  The final
    in(t_i) is at most in(t_i) + rest, so no complete assignment below a cut
    lets every member gain: the cut is exact.  At the last member rest is 0
    and the rule is the full gain test, so every complete assignment reached
    (counted in assignments_checked, bounded by COALITION_ASSIGNMENT_CAP)
    lets every member gain.  Only those reach the memoized joint insertion
    search, which is exact with residents kept in place; geometry_checks
    counts its distinct (residents kept, incoming classes) keys, one search
    each.  Fresh bins are interchangeable, so fresh slot j is used only once
    the slots below j are.  A target bin cannot take a member whose class
    would then exceed its per-bin capacity there.

    Bins of equal content (the same multiset of (class, base) pairs) are
    interchangeable too.  Each item is labelled (content id of its bin, slot
    of its cube in that content's sorted pairs); coincident cubes take
    distinct slots.  Let pi permute the used bins, each onto a bin of the
    same content, carrying each item to the item of the same slot there.
    Pi maps the config onto itself, so it keeps every occupancy, cost and
    resident layout, and it maps a gaining deviation of coalition C (fresh
    bins staying fresh) onto a gaining deviation of pi(C), and back under
    pi's inverse.  Give C the key: the sorted tuple, over the source bins C
    touches, of (content id, sorted member slots).  Two coalitions with one
    key are related by such a pi: pair the touched bins of equal entries,
    then the other bins of each content in any order.  So only the first
    coalition with each key is searched; coalitions_checked counts those.
    The search stops at the first gaining coalition in enumeration order.
    Every coalition before it, searched or skipped, admits no gaining
    deviation, so the first gaining coalition is the first of its orbit and
    is reported exactly as the search without the skip reports it.
    """
    if max_coalition_size < 1:
        raise ValueError("coalition size cap must be >= 1")
    m = config._volumes
    items = sorted(config.items, key=lambda x: x.item_id)
    src = config.assignment
    existing = sorted(m.iocc)
    fresh_base = (max(existing) + 1) if existing else 0
    content_id: Dict[tuple, int] = {}
    label: Dict[int, Tuple[int, int]] = {}
    for b in existing:
        content = config._contents[b]
        c = content_id.setdefault(content, len(content_id))
        slots: Dict[tuple, List[int]] = {}
        for slot, cube in enumerate(content):
            slots.setdefault(cube, []).append(slot)
        for i in m.members[b]:
            label[i] = (c, slots[(m.cid[i], config.positions[i])].pop())
    seen: set = set()
    memo: _Memo = {}
    coalitions_checked = 0
    assignments_checked = 0
    violation: Optional[CoalitionProposal] = None
    for coalition in chain.from_iterable(
        combinations(items, size) for size in range(1, max_coalition_size + 1)
    ):
        member_ids = [it.item_id for it in coalition]
        touched: Dict[int, List[Tuple[int, int]]] = {}
        for i in member_ids:
            touched.setdefault(src[i], []).append(label[i])
        orbit = tuple(sorted(tuple(sorted(labels)) for labels in touched.values()))
        if orbit in seen:
            continue
        seen.add(orbit)
        coalitions_checked += 1
        out_vol: Dict[int, int] = {}
        removed_count: Dict[int, Dict[int, int]] = {}
        for i in member_ids:
            b, c = src[i], m.cid[i]
            out_vol[b] = out_vol.get(b, 0) + m.ivol[i]
            here = removed_count.setdefault(b, {})
            here[c] = here.get(c, 0) + 1
        total_in = sum(m.ivol[i] for i in member_ids)
        # optimistic per-member target lists; exact check comes later
        cands: List[List[object]] = []
        for i in member_ids:
            c, need = m.cid[i], m.iocc[src[i]]
            opts: List[object] = []
            for t in existing:
                if t == src[i]:
                    continue
                kept = m.census[t][c] - removed_count.get(t, {}).get(c, 0)
                if kept + 1 > m.capacity[c]:
                    continue
                # every member could join the same bin
                if m.iocc[t] - out_vol.get(t, 0) + total_in > need:
                    opts.append(t)
            if total_in > need:
                opts.extend(("new", slot) for slot in range(len(coalition)))
            if not opts:
                cands = []
                break
            cands.append(opts)
        if not cands:
            continue
        room = {t: m.iocc[t] - out_vol.get(t, 0) for t in existing}
        for targets in _gaining_assignments(
            cands,
            [m.ivol[i] for i in member_ids],
            [m.iocc[src[i]] for i in member_ids],
            room,
        ):
            assignments_checked += 1
            if assignments_checked > COALITION_ASSIGNMENT_CAP:
                raise CoalitionSearchError(
                    f"coalition search exceeded {COALITION_ASSIGNMENT_CAP} assignments"
                )
            violation = _coalition_move(config, memo, coalition, targets, fresh_base)
            if violation is not None:
                break
        if violation is not None:
            break
    return StrongNashResult(
        violation is None,
        max_coalition_size,
        violation,
        coalitions_checked,
        assignments_checked,
        _searches(memo),
    )


def _coalition_move(
    config: GameConfig,
    memo: _Memo,
    coalition: Sequence[GameItem],
    targets: Sequence[object],
    fresh_base: int,
) -> Optional[CoalitionProposal]:
    """The coalition's deviation to `targets` (per member a used bin or
    ("new", j), which becomes bin fresh_base + j) if every target takes its
    incoming members with the residents kept in place, else None."""
    member_ids = [it.item_id for it in coalition]
    cid = config._volumes.cid
    placements: Dict[int, Tuple[Fraction, ...]] = {}
    for t in sorted(set(targets), key=str):
        movers = tuple(it for it, tt in zip(coalition, targets) if tt == t)
        residents = list(config._contents[t]) if isinstance(t, int) else []
        for i in member_ids:
            if config.assignment[i] == t:
                residents.remove((cid[i], config.positions[i]))
        kept = tuple(residents)
        layout = _place(config, memo.setdefault(kept, {}), kept, movers)
        if layout is None:
            return None
        placements.update(_distribute(layout, movers))
    real_targets = tuple(
        t if isinstance(t, int) else fresh_base + t[1] for t in targets
    )
    bases = tuple(placements[i] for i in member_ids)
    after = config.with_moves(
        {i: (t, base) for i, t, base in zip(member_ids, real_targets, bases)}
    )
    return CoalitionProposal(
        tuple(member_ids),
        real_targets,
        bases,
        tuple(config.item_cost(i) for i in member_ids),
        tuple(after.item_cost(i) for i in member_ids),
    )


def _gaining_assignments(
    cands: Sequence[Sequence[object]],
    vols: Sequence[int],
    needs: Sequence[int],
    room: Mapping[object, int],
):
    """Target tuples, in product order over cands, under which every member
    gains; the branch and bound of is_strong_nash.

    Member j moves volume vols[j] and gains iff its target ends above
    needs[j]; room[t] is what stays in t once the coalition has left (0 for
    fresh slots).  Fresh slot j may appear only after the slots below j are
    in use by earlier members.
    """
    m = len(cands)
    targets: List[object] = [None] * m
    in_vol: Dict[object, int] = {}

    def rec(j: int, used_new: int, rest: int):
        if j == m:
            yield tuple(targets)
            return
        v = vols[j]
        rest -= v
        for t in cands[j]:
            fresh = isinstance(t, tuple)
            if fresh and t[1] > used_new:
                continue
            targets[j] = t
            in_vol[t] = in_vol.get(t, 0) + v
            for i in range(j + 1):
                u = targets[i]
                if room.get(u, 0) + in_vol[u] + rest <= needs[i]:
                    break
            else:
                yield from rec(
                    j + 1, max(used_new, t[1] + 1) if fresh else used_new, rest
                )
            in_vol[t] -= v

    return rec(0, 0, sum(vols))


# ---------------------------------------------------------------------------
# inequality checks and anarchy instances


def prop1_check(k: int, ell: int, d: int) -> bool:
    """Exact test of (1-1/k)^d + 1/ell^d < (1-1/ell)^d.

    Cleared of denominators this is ell^d (k-1)^d + k^d < (ell-1)^d k^d,
    so plain integers suffice.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if k <= 1:
        raise ValueError(f"k must be > 1, got {k}")
    if ell < k + 1:
        raise ValueError(f"ell must be >= k+1, got ell={ell}, k={k}")
    return ell**d * (k - 1) ** d + k**d < (ell - 1) ** d * k**d


def prop1_sweep(k_max: int = 100, d_max: int = 20) -> Tuple[int, Tuple[Tuple[int, int, int], ...]]:
    """Check every 2 <= k < ell <= k_max, 2 <= d <= d_max; return failures."""
    checked = 0
    failures: List[Tuple[int, int, int]] = []
    for k in range(2, k_max):
        for ell in range(k + 1, k_max + 1):
            for d in range(2, d_max + 1):
                checked += 1
                if not prop1_check(k, ell, d):
                    failures.append((k, ell, d))
    return checked, tuple(failures)


def meir_moser_predicate(volumes: Sequence, ell, d: int) -> bool:
    """Total volume <= ell^d + (1-ell)^d, with ell the largest side:
    sufficient for packing all the cubes into one unit bin."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    ell = as_rational(ell)
    if not 0 < ell <= 1:
        raise ValueError(f"largest side must be in (0, 1], got {ell}")
    total = sum((as_rational(v) for v in volumes), Fraction(0))
    if total < 0:
        raise ValueError("volumes must be nonnegative")
    return total <= ell**d + (1 - ell) ** d


@dataclass(frozen=True)
class AnarchyInstance:
    """A worst-case equilibrium P' next to the optimal regrouping P."""

    p: GameConfig
    p_prime: GameConfig
    ratio: Fraction
    copies: int
    scaled: bool
    nash: Optional[NashResult]
    strong: Optional[StrongNashResult] = None


def anarchy_copies(
    packing: TypedPacking, copies_cap: int = COPIES_CAP
) -> Tuple[int, bool]:
    """Copy count N of the bin in an anarchy instance, and whether it was scaled.

    N is the product of all (k-1)^d when that fits the cap, else the
    packing's regroup period, the fewest copies that regroup into full grids.
    """
    n = packing.counts.grid_product()
    if n <= copies_cap:
        return n, False
    n = packing.counts.regroup_period()
    if n > copies_cap:
        raise ValueError(
            f"even the minimal regroupable copy count {n} exceeds the cap "
            f"{copies_cap}"
        )
    return n, True


def poa_instance(
    packing: TypedPacking,
    *,
    copies_cap: int = COPIES_CAP,
    certify: bool = True,
) -> AnarchyInstance:
    """P = N copies of the bin; P' regroups each class into full grid bins.

    |P'| / |P| = w(U) exactly, and P' is an equilibrium: moving a large cube
    into a smaller-class bin raises its cost (the grid cost inequality), and
    smaller cubes find no room in the full grids of larger classes.
    """
    eps_cap = Fraction(1, packing.k_max - 1)
    if packing.epsilon > eps_cap:
        raise ValueError(
            f"epsilon {packing.epsilon} exceeds 1/(k_max-1) = {eps_cap}"
        )
    n, scaled = anarchy_copies(packing, copies_cap)
    p = config_from_bins([packing.bin] * n)
    prime_bins: List[Bin] = []
    for k, count in packing.counts.grid_bins(n).items():
        grid = build_homogeneous(k, packing.d, packing.epsilon).bin
        prime_bins.extend([grid] * count)
    p_prime = config_from_bins(prime_bins)
    p.validate()
    p_prime.validate()
    ratio = Fraction(len(prime_bins), n)
    nash = None
    if certify:
        nash = is_nash(p_prime)
        if not nash:
            raise AssertionError(
                f"regrouped config unexpectedly admits moves: {nash.moves[:1]}"
            )
    return AnarchyInstance(p, p_prime, ratio, n, scaled, nash)


def spoa_instance(
    packing: TypedPacking,
    *,
    coalition_cap: int = 3,
    copies_cap: int = COPIES_CAP,
    certify: bool = True,
) -> AnarchyInstance:
    """As poa_instance, for power-of-two classes; P' is coalition-proof.

    With every side of the form (1+eps)/2^j, any joint deviation could be
    re-expressed in units of its smallest cube, contradicting the fullness
    of that cube's grid bin; the exhaustive search confirms this at desk
    scale up to the coalition cap.
    """
    for k in packing.classes:
        if k & (k - 1):
            raise ValueError(f"class {k} is not a power of two")
    inst = poa_instance(packing, copies_cap=copies_cap, certify=certify)
    strong = None
    if certify:
        strong = is_strong_nash(inst.p_prime, coalition_cap)
        if not strong:
            raise AssertionError(
                f"regrouped config admits a coalition: {strong.violation}"
            )
    return AnarchyInstance(
        inst.p, inst.p_prime, inst.ratio, inst.copies, inst.scaled, inst.nash, strong
    )


# ---------------------------------------------------------------------------
# sparse-bin audit


@dataclass(frozen=True)
class SparseBinReport:
    """Bins below the 2^-d occupancy threshold, for the bin-count bound."""

    sparse_bins: Tuple[int, ...]
    threshold: Fraction
    conditioned: bool  # True when the config came Nash-certified
    used_bins: int
    total_volume: Fraction

    @property
    def sparse_count_ok(self) -> Optional[bool]:
        if not self.conditioned:
            return None
        return len(self.sparse_bins) <= 1

    @property
    def bin_bound_ok(self) -> bool:
        # used <= 2^d * Vol + 1, the anarchy upper-bound arithmetic
        return self.used_bins <= (1 / self.threshold) * self.total_volume + 1


def sparse_bin_report(
    config: GameConfig, *, nash_result: Optional[NashResult] = None
) -> SparseBinReport:
    """Count bins with occupied volume below 2^-d.

    At an equilibrium at most one such bin can exist: two would let an item
    of the emptier one join the other (the joined volume stays packable by
    the largest-side volume criterion), strictly lowering its cost.
    """
    threshold = Fraction(1, 2**config.d)
    sparse = tuple(
        b for b in sorted(config.bins_map) if config.occupied(b) < threshold
    )
    conditioned = bool(nash_result) and nash_result.is_nash
    total = sum((config.occupied(b) for b in config.bins_map), Fraction(0))
    return SparseBinReport(
        sparse, threshold, conditioned, len(config.bins_map), total
    )
