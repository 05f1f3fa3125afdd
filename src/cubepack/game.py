"""Selfish cube packing: costs, improving moves, dynamics, equilibria, anarchy.

Each cube is a player whose cost is its volume divided by the occupied
volume of its bin; the social cost is the number of used bins.  Because
insertion cost depends only on volumes, never on positions, every move
and coalition search runs an exact prefilter on the config's integer
volumes before touching geometry.  Every geometric question goes through
one memoized joint placement search, keyed per call by what decides its
answer: an insertion by (target bin, mover class), a repack re-layout by
the sorted class multiset of residents plus mover, and a coalition target
by (target bin or fresh bin, members leaving it, incoming classes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from math import lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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

    Classes are indexed in order of first appearance by item id.  A class
    of side s fits at most floor(1/s)^d disjoint open cubes into one bin,
    whatever else sits there (interval-graph colouring per axis).
    """

    scale: int
    ivol: Dict[int, int]  # item id -> volume * scale
    cid: Dict[int, int]  # item id -> class index
    capacity: List[int]  # class index -> floor(1/side)^d
    iocc: Dict[int, int]  # bin -> occupied volume * scale
    members: Dict[int, List[int]]  # bin -> item ids, in item order
    census: Dict[int, List[int]]  # bin -> resident count per class index


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

    def used_bins(self) -> Tuple[int, ...]:
        return tuple(sorted(self.bins_map))

    @cached_property
    def _volumes(self) -> _VolumeModel:
        index: Dict[CubeClass, int] = {}
        for it in sorted(self.items, key=lambda x: x.item_id):
            index.setdefault(it.cls, len(index))
        scale = lcm(*(c.volume.denominator for c in index))
        cid = {it.item_id: index[it.cls] for it in self.items}
        vols = [c.volume.numerator * (scale // c.volume.denominator) for c in index]
        caps = [(c.side.denominator // c.side.numerator) ** self.d for c in index]
        ivol = {i: vols[c] for i, c in cid.items()}
        m = _VolumeModel(scale, ivol, cid, caps, {}, {}, {})
        for it in self.items:
            i, b = it.item_id, self.assignment[it.item_id]
            m.iocc[b] = m.iocc.get(b, 0) + m.ivol[i]
            m.members.setdefault(b, []).append(i)
            m.census.setdefault(b, [0] * len(index))[cid[i]] += 1
        return m

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
        """New config with the given items reassigned to (bin, base)."""
        assignment = dict(self.assignment)
        positions = dict(self.positions)
        for item_id, (bin_id, base) in updates.items():
            assignment[item_id] = bin_id
            positions[item_id] = tuple(base)
        return GameConfig(self.d, self.items, assignment, positions)


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
    repack_cap: int = 8,
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
    if mode not in ("insertion", "repack"):
        raise ValueError(f"unknown feasibility mode {mode!r}")
    m = config._volumes
    memo: Dict[tuple, Optional[tuple]] = {}
    proposals: List[MoveProposal] = []
    for it in sorted(config.items, key=lambda x: x.item_id):
        src, v = config.assignment[it.item_id], m.ivol[it.item_id]
        for target in sorted(m.iocc):
            joined = m.iocc[target] + v
            if target == src or not joined > m.iocc[src]:
                continue
            residents = m.members[target]
            if mode == "repack" and len(residents) + 1 > repack_cap:
                raise RepackSearchError(
                    f"bin {target} holds {len(residents)} items, repack cap "
                    f"is {repack_cap - 1} plus the mover"
                )
            if joined > m.scale:
                continue
            if mode == "insertion":
                bin_id, movers, cap = target, [it], None
            else:
                # re-lay the whole bin: an empty bin takes residents plus mover
                movers = [config.item(i) for i in residents] + [it]
                movers.sort(key=lambda x: (-x.side, x.cls.k))
                bin_id, cap = None, REPACK_NODE_CAP
            try:
                layout = _place(config, memo, bin_id, frozenset(), movers, cap)
            except SearchBudgetError as exc:
                raise RepackSearchError(f"re-layout of bin {target}: {exc}") from exc
            if layout is None:
                continue
            assigned = _distribute(layout, movers)
            relayout = None if mode == "insertion" else tuple(sorted(assigned.items()))
            costs = (Fraction(v, m.iocc[src]), Fraction(v, joined))
            proposals.append(
                MoveProposal(
                    it.item_id, src, target, mode, *costs, assigned[it.item_id], relayout
                )
            )
            if first_only:
                return tuple(proposals)
    return tuple(proposals)


def _place(
    config: GameConfig,
    memo: Dict[tuple, Optional[tuple]],
    target: Optional[int],
    removed: frozenset,
    incoming: Sequence[GameItem],
    node_cap: Optional[int] = None,
) -> Optional[Tuple[Tuple[CubeClass, Tuple[Fraction, ...]], ...]]:
    """(class, base) per incoming item, placed jointly into bin `target`
    (None: an empty bin) with its residents other than `removed` kept in
    place; None if they do not fit.

    find_joint_positions is exact and complete, and its answer depends only
    on the residents and the incoming classes, so `memo` keys it by (target,
    removed, sorted class indices).  A hit may list those classes in another
    order, which is why callers hand bases to items through _distribute.
    """
    cid = config._volumes.cid
    key = (target, removed, tuple(sorted(cid[it.item_id] for it in incoming)))
    if key not in memo:
        residents = [] if target is None else [
            PlacedCube(config.item(i).cls, config.positions[i])
            for i in config._volumes.members[target]
            if i not in removed
        ]
        bases = find_joint_positions(
            residents, [it.side for it in incoming], config.d, node_cap=node_cap
        )
        memo[key] = None if bases is None else tuple(
            zip((it.cls for it in incoming), bases)
        )
    return memo[key]


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
    note: str = FEASIBILITY_NOTE

    def __bool__(self) -> bool:
        return self.is_nash


def is_nash(
    config: GameConfig, mode: str = "insertion", *, repack_cap: int = 8
) -> NashResult:
    """True iff no single item has a strictly improving migration."""
    moves = improving_moves(config, mode, repack_cap=repack_cap)
    return NashResult(not moves, mode, moves)


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


_POLICY_ALIASES = {
    "first": "first",
    "first-improving": "first",
    "best": "best",
    "best-improving": "best",
    "random": "random",
    "random-seeded": "random",
}


@dataclass(frozen=True)
class DynamicsResult:
    config: GameConfig
    steps: int
    applied: Tuple[MoveProposal, ...]
    status: str  # "nash" or "budget-exhausted"
    certificate: Optional[NashResult]


def best_response_dynamics(
    config: GameConfig,
    policy: str = "first",
    *,
    max_steps: int = 10_000,
    seed: int = 0,
    mode: str = "insertion",
    repack_cap: int = 8,
) -> DynamicsResult:
    """Apply improving moves until none remain or the step budget runs out."""
    try:
        policy = _POLICY_ALIASES[policy]
    except KeyError:
        raise ValueError(f"unknown policy {policy!r}") from None
    rng = random.Random(seed)
    applied: List[MoveProposal] = []
    current = config
    last_potential = potential(current)
    for _ in range(max_steps):
        moves = improving_moves(
            current, mode, repack_cap=repack_cap, first_only=policy == "first"
        )
        if not moves:
            current.validate()
            cert = NashResult(True, mode, ())
            return DynamicsResult(current, len(applied), tuple(applied), "nash", cert)
        if policy == "first":
            move = moves[0]
        elif policy == "best":
            move = max(moves, key=lambda m: (m.cost_before - m.cost_after, -m.item_id))
        else:
            move = rng.choice(moves)
        current = apply_move(current, move)
        applied.append(move)
        now = potential(current)
        if not now > last_potential:
            raise AssertionError(
                f"potential did not increase: {last_potential} -> {now}"
            )
        last_potential = now
    current.validate()
    return DynamicsResult(current, len(applied), tuple(applied), "budget-exhausted", None)


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


def is_strong_nash(
    config: GameConfig,
    max_coalition_size: int,
    *,
    assignment_cap: int = 5_000_000,
) -> StrongNashResult:
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
    (counted in assignments_checked, bounded by assignment_cap) lets every
    member gain.  Only those reach the memoized joint insertion search,
    which is exact with residents kept in place; geometry_checks counts its
    runs.  Fresh bins are interchangeable, so fresh slot j is used only once
    the slots below j are.  A target bin cannot take a member whose class
    would then exceed its per-bin capacity there.
    """
    if max_coalition_size < 1:
        raise ValueError("coalition size cap must be >= 1")
    m = config._volumes
    items = sorted(config.items, key=lambda x: x.item_id)
    src = config.assignment
    existing = sorted(m.iocc)
    fresh_base = (max(existing) + 1) if existing else 0
    memo: Dict[tuple, Optional[tuple]] = {}
    coalitions_checked = 0
    assignments_checked = 0
    violation: Optional[CoalitionProposal] = None
    for coalition in chain.from_iterable(
        combinations(items, size) for size in range(1, max_coalition_size + 1)
    ):
        coalitions_checked += 1
        member_ids = [it.item_id for it in coalition]
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
            if assignments_checked > assignment_cap:
                raise CoalitionSearchError(
                    f"coalition search exceeded {assignment_cap} assignments"
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
        len(memo),
    )


def _coalition_move(
    config: GameConfig,
    memo: Dict[tuple, Optional[tuple]],
    coalition: Sequence[GameItem],
    targets: Sequence[object],
    fresh_base: int,
) -> Optional[CoalitionProposal]:
    """The coalition's deviation to `targets` (per member a used bin or
    ("new", j), which becomes bin fresh_base + j) if every target takes its
    incoming members with the residents kept in place, else None."""
    member_ids = [it.item_id for it in coalition]
    placements: Dict[int, Tuple[Fraction, ...]] = {}
    for t in sorted(set(targets), key=str):
        movers = tuple(it for it, tt in zip(coalition, targets) if tt == t)
        bin_id = t if isinstance(t, int) else None
        removed = frozenset(i for i in member_ids if config.assignment[i] == bin_id)
        layout = _place(config, memo, bin_id, removed, movers)
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
    n = 1
    for k in packing.classes:
        n *= (k - 1) ** packing.d
    if n <= copies_cap:
        return n, False
    n = packing.regroup_period()
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
    for k in packing.classes:
        total = n * packing.nu[k]
        per_bin = (k - 1) ** packing.d
        assert total % per_bin == 0
        grid = build_homogeneous(k, packing.d, packing.epsilon).bin
        prime_bins.extend([grid] * (total // per_bin))
    p_prime = config_from_bins(prime_bins)
    p.validate()
    p_prime.validate()
    ratio = Fraction(len(prime_bins), n)
    assert ratio == packing.weight()
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
