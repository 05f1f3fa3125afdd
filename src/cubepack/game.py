"""Selfish cube packing: costs, improving moves, dynamics, equilibria, anarchy.

Each cube is a player whose cost is its volume divided by the occupied
volume of its bin; the social cost is the number of used bins.  A config
answers every per-bin question (occupancy, members, class census,
content, cost) from one bin model: integer volumes over one common
denominator, and each bin's content in integers, built the first time it
is asked for.  A moved config inherits its parent's model and recomputes
only the bins the move touched.  Because insertion cost depends only on
volumes, never on positions, every move and coalition search runs an
exact prefilter on those integers before touching geometry.  Every
geometric question goes through one memoized integer placement search,
keyed by the content of the residents kept and the incoming classes in
one fixed order: an insertion keeps the whole target bin, a repack
re-layout nothing, and a coalition target what its members leave behind.
Bases become Fractions only in the moves reported or applied.

The checks read types, not items.  A move's gain depends on
(occ(source), class, occ(target)) and its room on (target content,
class), so the move screen runs per type (proof at _MoveScreen).  A move
changes the occupancy and content of its two bins only, so best-response
dynamics carries the screen's fits from step to step and works out again
only those of the two bins the last move touched.
Bin permutations that preserve content preserve every cost and layout,
so the coalition search enumerates one coalition per orbit of them,
directly and in the order of each orbit's least member, and runs its
branch and bound once per type pattern, searching only the orbits of
patterns that can gain (proofs at is_strong_nash and _Orbits.levels).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations, starmap
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
    _joint_corners,
    as_rational,
    expect_type,
    format_rational,
    verify_bin,
)
from .packing import TypedPacking, build_homogeneous

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
    """The one per-bin model of a config: its volumes as exact integers
    over one common denominator, who sits in each bin, and each bin's
    content.

    Classes are indexed in one fixed order, by (-side, k): larger cubes
    first, and k tells apart the classes of one side.  A class of side s
    fits at most floor(1/s)^d disjoint open cubes into one bin, whatever
    else sits there (interval-graph colouring per axis).  A bin's content
    is built the first time it is asked for.
    """

    scale: int
    ivol: Dict[int, int]  # item id -> volume * scale, in item order
    cid: Dict[int, int]  # item id -> class index, in item order
    rank: Dict[int, int]  # item id -> its place in item order
    classes: List[CubeClass]  # class index -> class
    capacity: List[int]  # class index -> floor(1/side)^d
    unit: int  # lcm of the class side denominators
    positions: Mapping[int, Tuple[Fraction, ...]]  # item id -> base
    iocc: Dict[int, int]  # bin -> occupied volume * scale
    members: Dict[int, List[int]]  # bin -> item ids, in item order
    census: Dict[int, List[int]]  # bin -> resident count per class index
    contents: Dict[int, tuple]  # bin -> content, for the bins asked so far

    def cube(self, item_id: int, unit: int) -> Tuple[int, Tuple[int, ...]]:
        """The item's (class index, base), its base in ints over `unit`."""
        return self.cid[item_id], tuple(
            [x.numerator * (unit // x.denominator) for x in self.positions[item_id]]
        )

    def content(self, bin_id: int) -> Tuple[int, Tuple[Tuple[int, Tuple[int, ...]], ...]]:
        """The bin's content: its unit (the lcm of `unit` and its bases'
        denominators, so it depends on the cubes alone) and the sorted
        (class index, base) pairs of its cubes, bases in ints over it.  A
        sorted tuple, not a set, so coincident cubes stay two."""
        if bin_id not in self.contents:
            ids = self.members[bin_id]
            cubes = [(self.cid[i], self.positions[i]) for i in ids]
            # copies of one bin share a content: comparing their bases (mostly
            # shared Fraction objects) is far cheaper than rescaling them
            peers = self._built.setdefault((self.iocc[bin_id], len(ids)), [])
            content = next((c for other, c in peers if other == cubes), None)
            if content is None:
                unit = lcm(self.unit, *{x.denominator for _, base in cubes for x in base})
                content = unit, tuple(sorted(self.cube(i, unit) for i in ids))
                peers.append((cubes, content))
            self.contents[bin_id] = content
        return self.contents[bin_id]

    @cached_property
    def _built(self) -> Dict[Tuple[int, int], list]:
        """(occupancy, cube count) -> (cubes, content) of each content built."""
        return {}

    def regrouped(
        self,
        assignment: Mapping[int, int],
        positions: Mapping[int, Tuple[Fraction, ...]],
        movers: Collection[int],
        touched: Collection[int],
    ) -> "_VolumeModel":
        """The model of `assignment` and `positions`, given that they differ
        from this model's only in the `movers`, which leave or enter the
        bins `touched`.  The per-item data is shared, and only the touched
        bins are recomputed, from the members that stay plus the movers that
        arrive; their contents are dropped, and a touched bin left empty
        drops out.  Each content has its own unit, so no moved base can
        fall off the grid of a content kept."""
        moving = set(movers)
        fresh: Dict[int, List[int]] = {
            b: [i for i in self.members.get(b, ()) if i not in moving] for b in touched
        }
        for i in movers:
            fresh[assignment[i]].append(i)
        rank = self.rank.__getitem__
        iocc, members, census = dict(self.iocc), dict(self.members), dict(self.census)
        contents = {b: c for b, c in self.contents.items() if b not in fresh}
        for b, ids in fresh.items():
            if not ids:
                for table in (iocc, members, census):
                    table.pop(b, None)
                continue
            ids.sort(key=rank)
            count = [0] * len(self.classes)
            for i in ids:
                count[self.cid[i]] += 1
            iocc[b] = sum(self.ivol[i] for i in ids)
            members[b], census[b] = ids, count
        return _VolumeModel(
            self.scale, self.ivol, self.cid, self.rank, self.classes, self.capacity,
            self.unit, positions, iocc, members, census, contents,
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
            if len(self.positions[it.item_id]) != self.d:
                raise ValueError(f"item {it.item_id} has a base not of length d={self.d}")
        pos = {i: tuple(as_rational(x) for x in p) for i, p in self.positions.items()}
        object.__setattr__(self, "positions", pos)

    @classmethod
    def _trusted(cls, d: int, items: tuple, assignment: dict, positions: dict, **cached):
        """A config without the constructor's checks, for callers whose
        items, bins and Fraction bases are checked already; `cached` seeds
        its cached properties."""
        new = object.__new__(cls)
        new.__dict__.update(
            d=d, items=items, assignment=assignment, positions=positions, **cached
        )
        return new

    @cached_property
    def bins_map(self) -> Dict[int, Bin]:
        m = self._volumes
        return {
            b: Bin(self.d, tuple(PlacedCube(m.classes[m.cid[i]], m.positions[i])
                                 for i in ids))
            for b, ids in m.members.items()
        }

    @cached_property
    def _volumes(self) -> _VolumeModel:
        # a class hashes its Fraction slack, and copies of one bin share their
        # class objects: hash each distinct object once, not each item's class
        objects = {id(it.cls): it.cls for it in self.items}
        order = sorted(set(objects.values()), key=lambda c: (-c.side, c.k))
        index = {o: order.index(c) for o, c in objects.items()}
        cid = {it.item_id: index[id(it.cls)] for it in self.items}
        scale = lcm(*(c.volume.denominator for c in order))
        vols = [c.volume.numerator * (scale // c.volume.denominator) for c in order]
        caps = [(c.side.denominator // c.side.numerator) ** self.d for c in order]
        ivol = {i: vols[c] for i, c in cid.items()}
        unit = lcm(*(c.side.denominator for c in order))
        rank = {i: n for n, i in enumerate(cid)}
        empty = _VolumeModel(
            scale, ivol, cid, rank, order, caps, unit, self.positions, {}, {}, {}, {}
        )
        touched = set(self.assignment.values())
        return empty.regrouped(self.assignment, self.positions, cid, touched)

    def occupied(self, bin_id: int) -> Fraction:
        m = self._volumes
        return Fraction(m.iocc[bin_id], m.scale)

    def item_cost(self, item_id: int) -> Fraction:
        m = self._volumes
        return Fraction(m.ivol[item_id], m.iocc[self.assignment[item_id]])

    def social_cost(self) -> int:
        """Number of used bins; cross-checked against the exact cost sum."""
        bins = len(self._volumes.iocc)
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

        The new config inherits this one's bin model: only the bins a moved
        item leaves or enters are recomputed.  The rest was checked when this
        config was built: only the moved bases are coerced.
        """
        assignment = dict(self.assignment)
        positions = dict(self.positions)
        for item_id, (bin_id, base) in updates.items():
            if item_id not in assignment:
                raise ValueError(f"unknown item {item_id}")
            if len(base) != self.d:
                raise ValueError(f"item {item_id} has a base not of length d={self.d}")
            assignment[item_id] = bin_id
            positions[item_id] = tuple(map(as_rational, base))
        touched = {self.assignment[i] for i in updates} | {assignment[i] for i in updates}
        model = self._volumes.regrouped(assignment, positions, updates, touched)
        return GameConfig._trusted(self.d, self.items, assignment, positions, _volumes=model)


def config_from_bins(bins: Sequence[Bin]) -> GameConfig:
    """Number the cubes of the given bins 0.. and wrap them as a game state.

    Each Bin holds cubes of its own dimension and each PlacedCube a base of
    d Fractions, so the config is built without re-checking them, and the
    copies of one bin share their base tuples."""
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
    return GameConfig._trusted(d, tuple(items), assignment, positions)


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
    rows = expect_type(payload["cubes"], list)
    if d < 1 or not rows:
        raise ValueError(
            f"a game config needs d >= 1 and at least one cube; got d={d} and "
            f"{len(rows)} cubes"
        )
    items: List[GameItem] = []
    assignment: Dict[int, int] = {}
    positions: Dict[int, Tuple[Fraction, ...]] = {}
    for row in rows:
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
    config: GameConfig, mode: str = "insertion"
) -> Tuple[MoveProposal, ...]:
    """All strictly improving single-item migrations, deterministically ordered.

    A move to bin t improves the mover iff occupied(t) + volume exceeds the
    occupied volume of its current bin: cost never depends on positions, so
    this arithmetic filter is complete and geometry runs only on survivors.
    Disjoint open cubes in the unit bin have total volume at most 1, so a
    target whose occupied(t) + volume exceeds 1 is skipped without a search,
    and so is a target that already holds floor(1/side)^d cubes of the
    mover's class, the most one bin can hold.  These tests run on the
    config's integers.  Fresh bins are never targets; a lone item's cost
    of 1 cannot improve.
    """
    return is_nash(config, mode).moves


def _check_mode(mode: str) -> None:
    if mode not in ("insertion", "repack"):
        raise ValueError(f"unknown feasibility mode {mode!r}")


class _Candidate(NamedTuple):
    """A feasible improving move before its costs and bases are built."""

    item: int  # the mover's id
    source: int
    target: int
    joined: int  # occupied volume of the target after the move, times scale
    unit: int  # the layout's bases are ints over this
    layout: tuple  # _place's answer: (class index, base) per mover
    movers: Sequence[int]  # the item, after the residents on a repack


class _MoveScreen:
    """The moves of improving_moves, lazily and in its order (item id, then
    target bin), carried along a run of moves.  Each candidate passes the
    gain, volume and capacity screens and then the memoized placement
    search; turn one into a MoveProposal by _proposal.

    Every test on (item i, target t) reads i only through its type,
    (occ(source), class), and only the gain test reads occ(source): the
    repack cap, the volume and capacity tests and the placement read t
    and the class alone.  So the screen keeps, per type, an entry for each
    target that passes the gain test, and per target and class whether a
    mover fits.  That fit is probed (the other tests, then the search) the
    first time a walk reaches an entry that needs it, and an entry whose
    fit fails is dropped.  Each item walks its type's entries in target
    order, skipping its own source, so the candidates, their order, the
    searches and the point at which a repack cap raises are those of the
    walk over every (item, target) pair, and no walk runs a search that
    walk would not.  A search runs once per (target content, incoming
    classes), through the memo.

    Capacity: a bin holds at most capacity[c] class-c cubes (see
    _VolumeModel), so a class-c mover into a bin that holds that many
    already has no room, kept in place or re-laid, and gets no search.

    Carry (moved): the fit of class c in target u reads only occ(u) and
    content(u), which also fixes u's cube count for the repack cap.  A move
    from bin s to bin t changes the occupancies and contents of s and t
    alone, so every fit for another target stays valid.  A step forgets the
    fits of s and t and rebuilds each type's entries by the gain test,
    taking every fit still known, so only the fits forgotten or never
    worked out are probed.
    """

    def __init__(self, config: GameConfig, mode: str) -> None:
        self.mode = mode
        self.memo: _Memo = {}
        m = config._volumes
        self.ids = sorted(m.cid)
        self.vols = dict(zip(m.cid.values(), m.ivol.values()))  # class -> volume
        # target -> class -> (unit, layout) if a mover fits, else False
        self.fits: Dict[int, Dict[int, object]] = {t: {} for t in m.iocc}
        self.moved(config, ())

    def moved(self, config: GameConfig, touched: Collection[int]) -> None:
        """Carry the screen to `config`, which differs from the screen's
        config only in the bins `touched`."""
        self.config = config
        m, src, fits = config._volumes, config.assignment, self.fits
        iocc, cid = m.iocc, m.cid
        for t in touched:
            del fits[t]
            if t in iocc:
                fits[t] = {}
        # type -> ({target: its fit, None until probed}, its targets in order)
        types: Dict[Tuple[int, int], Tuple[Dict[int, Optional[tuple]], List[int]]] = {}
        # per item, in id order: (id, class, source bin, type entries, targets)
        self.walk = []
        bins = sorted(iocc)
        for i in self.ids:
            c, s = cid[i], src[i]
            occ = iocc[s]
            screen = types.get((occ, c))
            if screen is None:
                v = self.vols[c]
                entries = {
                    t: fit for t in bins
                    if iocc[t] + v > occ and (fit := fits[t].get(c)) is not False
                }
                screen = types[occ, c] = entries, list(entries)
            self.walk.append((i, c, s, *screen))

    def _probe(self, entries: Dict[int, Optional[tuple]], c: int, t: int):
        """Fill in the entry of target t for a type of class c: its fit, or
        drop it and return False."""
        fits = self.fits[t]
        if c not in fits:
            m = self.config._volumes
            residents = m.members[t]
            if self.mode == "repack" and len(residents) + 1 > REPACK_ITEM_CAP:
                raise RepackSearchError(
                    f"bin {t} holds {len(residents)} items, repack cap "
                    f"is {REPACK_ITEM_CAP - 1} plus the mover"
                )
            fits[c] = False
            if m.iocc[t] + self.vols[c] <= m.scale and m.census[t][c] < m.capacity[c]:
                if self.mode == "insertion":
                    kept, key, cap = m.content(t), (c,), None
                else:
                    # re-lay the whole bin: an empty bin takes residents plus mover
                    kept, cap = (m.unit, ()), REPACK_NODE_CAP
                    key = tuple(sorted([m.cid[r] for r in residents] + [c]))
                table = self.memo.setdefault(kept, {})
                if key not in table:
                    try:
                        table[key] = _place(self.config, kept, key, cap)
                    except SearchBudgetError as exc:
                        raise RepackSearchError(f"re-layout of bin {t}: {exc}") from exc
                if table[key] is not None:
                    fits[c] = kept[0], table[key]
        if fits[c]:
            entries[t] = fits[c]
        else:
            del entries[t]
        return fits[c]

    def _candidate(self, i: int, s: int, t: int, fit: tuple) -> _Candidate:
        m = self.config._volumes
        movers = [i] if self.mode == "insertion" else m.members[t] + [i]
        return _Candidate(i, s, t, m.iocc[t] + m.ivol[i], *fit, movers)

    def _moves(self) -> Iterator[Tuple[int, int, int, tuple]]:
        """(item, source, target, fit) of each candidate, in move order,
        probing entries as they are reached.  A type's targets are sorted
        once; the entries a probe dropped are skipped."""
        for i, c, s, entries, targets in self.walk:
            for t in targets:
                if t != s and t in entries:
                    fit = entries[t] or self._probe(entries, c, t)
                    if fit:
                        yield i, s, t, fit

    def candidates(self) -> Iterator[_Candidate]:
        """The candidates in move order."""
        return starmap(self._candidate, self._moves())

    def pick(self, policy: str, rng: random.Random) -> Optional[_Candidate]:
        """The candidate a dynamics step under `policy` applies, or None.

        "random" draws with rng.choice from the walk's moves and builds the
        candidate for the drawn move alone.
        """
        if policy == "first":
            return next(self.candidates(), None)
        if policy == "best":
            m = self.config._volumes
            return max(self.candidates(), key=lambda c: (_gain(m, c), -c.item), default=None)
        pool = list(self._moves())
        return self._candidate(*rng.choice(pool)) if pool else None


def _gain(m: _VolumeModel, c: _Candidate) -> Fraction:
    """cost_before - cost_after of the candidate's proposal."""
    before = m.iocc[c.source]
    return Fraction(m.ivol[c.item] * (c.joined - before), before * c.joined)


def _proposal(config: GameConfig, mode: str, c: _Candidate) -> MoveProposal:
    m, i = config._volumes, c.item
    assigned = _distribute(m, c.unit, c.layout, c.movers)
    relayout = None if mode == "insertion" else tuple(sorted(assigned.items()))
    costs = (Fraction(m.ivol[i], m.iocc[c.source]), Fraction(m.ivol[i], c.joined))
    return MoveProposal(i, c.source, c.target, mode, *costs, assigned[i], relayout)


def _place(
    config: GameConfig,
    kept: Tuple[int, tuple],
    key: Tuple[int, ...],
    node_cap: Optional[int] = None,
) -> Optional[Tuple[Tuple[int, Tuple[int, ...]], ...]]:
    """(class index, base) per incoming class of `key` (sorted class
    indices), placed jointly among the residents `kept` (a content; no
    pairs for an empty bin), bases in ints over its unit; None if they do
    not fit.  Callers keep the answer in the memo, memo[kept][key], and
    hand bases to items, as Fractions, through _distribute.

    geometry's integer core is exact and complete, and its answer depends
    only on the residents and the incoming sides in the order given; a
    sorted key searches the classes in the one order (-side, k), so a memo
    entry depends on its key alone.  The residents' boxes are read off the
    content.
    """
    m = config._volumes
    unit, pairs = kept
    sides = [c.side.numerator * (unit // c.side.denominator) for c in m.classes]
    boxes = [(base, tuple([v + sides[c] for v in base])) for c, base in pairs]
    found = _joint_corners(boxes, unit, [sides[c] for c in key], config.d, node_cap)
    return None if found is None else tuple(zip(key, found))


def _searches(memo: _Memo) -> int:
    """Placement searches a memo holds: one per (kept, incoming) key."""
    return sum(len(table) for table in memo.values())


def _distribute(
    m: _VolumeModel,
    unit: int,
    layout: Iterable[Tuple[int, Tuple[int, ...]]],
    items: Iterable[int],
) -> Dict[int, Tuple[Fraction, ...]]:
    """Hand the found bases, ints over `unit`, back to concrete items as
    Fractions, matching by class index."""
    pool: Dict[int, List[Tuple[int, ...]]] = {}
    for c, base in layout:
        pool.setdefault(c, []).append(base)
    return {
        i: tuple(Fraction(v, unit) for v in pool[m.cid[i]].pop()) for i in sorted(items)
    }


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

    def __bool__(self) -> bool:
        return self.is_nash


def is_nash(config: GameConfig, mode: str = "insertion") -> NashResult:
    """True iff no single item has a strictly improving migration; the
    moves are those of improving_moves."""
    _check_mode(mode)
    screen = _MoveScreen(config, mode)
    moves = tuple(_proposal(config, mode, c) for c in screen.candidates())
    return NashResult(not moves, mode, moves, _searches(screen.memo))


# ---------------------------------------------------------------------------
# best-response dynamics


def potential(config: GameConfig) -> Tuple[Fraction, ...]:
    """Per-bin occupied volumes, sorted descending.

    Each improving move replaces two entries {occ(src), occ(tgt)} by
    {occ(src)-v, occ(tgt)+v} with occ(tgt)+v above both originals, so this
    vector strictly increases lexicographically; with volumes drawn from a
    finite set, dynamics must terminate.
    """
    m = config._volumes
    return tuple(sorted((Fraction(v, m.scale) for v in m.iocc.values()), reverse=True))


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
    and each config inherits its parent's bin model.  The
    potential is checked on integer occupancies; over one common
    denominator they order exactly as potential() does.

    The move screen's fits are carried, not rebuilt.  Whether a class fits
    into a target u reads only occ(u) and content(u), and the move from s
    to t changes occ and content of s and t alone.  So after each move only
    the fits for s and t are worked out again, each step re-runs the
    integer gain test per type and target, and each step offers the moves
    of a screen built for the new config, in the same order (see
    _MoveScreen).
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
    screen = _MoveScreen(current, mode)
    for _ in range(max_steps):
        searched = _searches(screen.memo)
        chosen = screen.pick(policy, rng)
        if chosen is None:
            current.validate()
            total = _searches(screen.memo)
            cert = NashResult(True, mode, (), total - searched)
            return DynamicsResult(
                current, len(applied), tuple(applied), "nash", cert, total
            )
        move = _proposal(current, mode, chosen)
        current = apply_move(current, move)
        screen.moved(current, {move.source_bin, move.target_bin})
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
        current, len(applied), tuple(applied), "budget-exhausted", None,
        _searches(screen.memo),
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

    A member that keeps its bin can leave the coalition (the outcome is the
    same), so only all-mover coalitions are enumerated; members may not
    swap positions inside their bins.  Member i gains iff its target t_i
    ends fuller than its source src_i is now, so targets are assigned member
    by member as a branch and bound on integer volumes, cut once an
    assigned member i cannot gain even if every unassigned member joins t_i:

        occ(t_i) - out(t_i) + in(t_i) + rest <= occ(src_i),

    with out(t) the volume the coalition takes out of t, in(t) the volume
    assigned into t so far and rest the volume unassigned.  The final in(t_i)
    is at most in(t_i) + rest, so the cut is exact, and at the last member it
    is the full gain test: every complete assignment reached (counted in
    assignments_checked, bounded by COALITION_ASSIGNMENT_CAP) lets every
    member gain, and only those reach the memoized joint insertion search
    (geometry_checks counts its keys, one search each).  Fresh slot j is
    used only once the slots below j are, and a target cannot take a member
    whose class would exceed its per-bin capacity there.

    Source screen: with V the sum of the cap's largest item volumes, t_i
    ends at most at occ(t_i) + V if used and at V if fresh, so item i is
    dropped unless max(occ(t) over used t != src_i, or 0) + V > occ(src_i).

    Orbits.  Let pi permute the used bins, each onto a bin of equal content,
    carrying each item to the item of the same slot there.  Pi maps the
    config onto itself, so C admits a gaining deviation iff pi(C) does.
    Coalitions of one key (_Orbits.signature) are related by such a pi
    (pair the touched bins of equal entries, then the other bins of each
    content), so only one per key is searched: its least sorted tuple of
    item ids.  _Orbits.levels visits these size by size, in item order, so
    the first gaining one is the first gaining coalition of the plain walk
    over every combination of items.

    Types.  The branch and bound reads a coalition only through its type
    pattern (per touched bin, its content and member classes): coalitions of
    one pattern are related by a pi up to which items of a class they take
    in a bin, so they reach equally many complete gaining assignments.  The
    patterns are the keys of the items labelled by class, so the same walk
    gives one coalition per pattern, and the branch and bound runs once on
    it.  Representatives are built only along the sub-patterns of the
    patterns that reach an assignment (each prefix of a representative has
    one), and only those of such patterns are searched (counted in
    coalitions_checked).  The rest reach no assignment and no search, so
    the verdict and the first violation are unchanged.
    """
    if max_coalition_size < 1:
        raise ValueError("coalition size cap must be >= 1")
    m = config._volumes
    src = config.assignment
    existing = sorted(m.iocc)
    fresh_base = (max(existing) + 1) if existing else 0
    # the test depends on the source bin alone: keep the bins that pass it
    reach = sum(sorted(m.ivol.values(), reverse=True)[:max_coalition_size])
    fullest = sorted(existing, key=m.iocc.__getitem__, reverse=True)[:2]
    sources = [
        b for b in existing
        if max((m.iocc[t] for t in fullest if t != b), default=0) + reach > m.iocc[b]
    ]
    types = _Orbits(m, sources, by_class=True)
    live = {
        pattern: coalition
        for level in types.levels(max_coalition_size)
        for coalition, pattern in level
        if next(_gaining_assignments(m, src, existing, coalition), None)
    }
    # the sub-patterns of a pattern are those of its coalition's parts
    allowed = {
        types.signature(part)[0]
        for coalition in live.values()
        for size in range(1, len(coalition) + 1)
        for part in combinations(coalition, size)
    }
    memo: _Memo = {}
    coalitions_checked = 0
    assignments_checked = 0
    for level in _Orbits(m, sources).levels(max_coalition_size, allowed):
        for coalition, pattern in level:
            if pattern not in live:
                continue
            coalitions_checked += 1
            for targets in _gaining_assignments(m, src, existing, coalition):
                assignments_checked += 1
                if assignments_checked > COALITION_ASSIGNMENT_CAP:
                    raise CoalitionSearchError(
                        f"coalition search exceeded {COALITION_ASSIGNMENT_CAP} assignments"
                    )
                violation = _coalition_move(config, memo, coalition, targets, fresh_base)
                if violation is not None:
                    return StrongNashResult(
                        False, max_coalition_size, violation, coalitions_checked,
                        assignments_checked, _searches(memo),
                    )
    return StrongNashResult(
        True, max_coalition_size, None, coalitions_checked, assignments_checked,
        _searches(memo),
    )


class _Orbits:
    """The items of the given source bins, each labelled (bin, content id of
    the bin, slot): its place among the bin's cubes sorted by (class, base),
    coincident cubes in item order, or with `by_class` its class index."""

    def __init__(self, m: _VolumeModel, sources: Iterable[int], by_class: bool = False):
        self.m = m
        ids: Dict[tuple, int] = {}
        self.label: Dict[int, Tuple[int, int, int]] = {}
        for b in sources:
            content = m.content(b)
            k = ids.setdefault(content, len(ids))
            slots = sorted(m.members[b], key=lambda i: m.cube(i, content[0]))
            for slot, i in enumerate(slots):
                self.label[i] = (b, k, m.cid[i] if by_class else slot)
        self.items = sorted(self.label)

    def signature(self, coalition: Iterable[int]) -> Tuple[tuple, tuple]:
        """The coalition's type pattern and key: sorted over the bins it
        touches, (content id, sorted member classes) and (content id,
        sorted member labels)."""
        touched: Dict[int, List[int]] = {}
        for i in coalition:
            touched.setdefault(self.label[i][0], []).append(i)
        pattern, key = [], []
        for ids in touched.values():
            k = self.label[ids[0]][1]
            pattern.append((k, tuple(sorted(self.m.cid[i] for i in ids))))
            key.append((k, tuple(sorted(self.label[i][2] for i in ids))))
        return tuple(sorted(pattern)), tuple(sorted(key))

    def levels(self, cap: int, allowed: Optional[Collection[tuple]] = None) -> Iterator[list]:
        """Per size 1..cap, the (least coalition, pattern) pair of each key
        whose pattern is `allowed` (all if None; else closed under
        sub-patterns), in item order.

        A level extends the one below, in order, by each larger item, and
        keeps an extension with a key new at its level.  Coalitions share a
        key iff an item permutation pi of the kind in is_strong_nash maps
        one onto the other, and a prefix of a least coalition is least:
        were pi(P) below P, first differing at j, then pi(P + (x,)) with
        x > max P would be below P + (x,), as pi(x) enters pi(P) either
        under P's entry at a place below j or at or above j, keeping the
        difference at j.  So each least coalition extends one of the level
        below, and as extensions come in lexicographic order, the first of
        a key is the least.  A prefix has a sub-pattern of its extension's.
        """
        position = {i: n for n, i in enumerate(self.items)}
        level: List[Tuple[int, ...]] = [()]
        for _ in range(cap):
            seen: set = set()
            found = []
            for prefix in level:
                for i in self.items[position[prefix[-1]] + 1 if prefix else 0 :]:
                    coalition = prefix + (i,)
                    pattern, key = self.signature(coalition)
                    if (allowed is None or pattern in allowed) and key not in seen:
                        seen.add(key)
                        found.append((coalition, pattern))
            if not found:
                return
            yield found
            level = [coalition for coalition, _ in found]


def _coalition_move(
    config: GameConfig,
    memo: _Memo,
    members: Sequence[int],
    targets: Sequence[object],
    fresh_base: int,
) -> Optional[CoalitionProposal]:
    """The coalition's deviation to `targets` (per member a used bin or
    ("new", j), which becomes bin fresh_base + j) if every target takes its
    incoming members with the residents kept in place, else None."""
    m = config._volumes
    placements: Dict[int, Tuple[Fraction, ...]] = {}
    # the occupancy of each target after the move, times scale
    after: Dict[object, int] = {t: m.iocc.get(t, 0) for t in targets}
    for i, t in zip(members, targets):
        after[t] += m.ivol[i]
        if config.assignment[i] in after:
            after[config.assignment[i]] -= m.ivol[i]
    for t in sorted(after, key=str):
        movers = [i for i, tt in zip(members, targets) if tt == t]
        if isinstance(t, int):
            unit, pairs = m.content(t)
            residents = list(pairs)
            for i in members:
                if config.assignment[i] == t:
                    residents.remove(m.cube(i, unit))
            kept = (unit, tuple(residents))
        else:
            kept = (m.unit, ())
        key = tuple(sorted(m.cid[i] for i in movers))
        table = memo.setdefault(kept, {})
        if key not in table:
            table[key] = _place(config, kept, key)
        layout = table[key]
        if layout is None:
            return None
        placements.update(_distribute(m, kept[0], layout, movers))
    return CoalitionProposal(
        tuple(members),
        tuple(t if isinstance(t, int) else fresh_base + t[1] for t in targets),
        tuple(placements[i] for i in members),
        tuple(config.item_cost(i) for i in members),
        tuple(Fraction(m.ivol[i], after[t]) for i, t in zip(members, targets)),
    )


def _gaining_assignments(
    m: _VolumeModel, src: Mapping[int, int], existing: Sequence[int], members: Sequence[int]
) -> Iterator[tuple]:
    """Target tuples (per member a used bin or ("new", j)), in product order
    over the members' target lists, under which every member gains; the
    branch and bound of is_strong_nash.

    Member i's list holds the used bins t != src_i where its class stays
    within capacity and that end above occ(src_i) if every member joins
    them, then the fresh slots if the whole coalition beats occ(src_i).
    room[t] is what stays in t once the coalition has left (0 for fresh
    slots).  Fresh slot j may appear only after the slots below j are in
    use by earlier members.
    """
    room = {t: m.iocc[t] for t in existing}
    removed: Dict[Tuple[int, int], int] = {}
    for i in members:
        room[src[i]] -= m.ivol[i]
        removed[src[i], m.cid[i]] = removed.get((src[i], m.cid[i]), 0) + 1
    vols = [m.ivol[i] for i in members]
    needs = [m.iocc[src[i]] for i in members]
    total = sum(vols)
    cands: List[List[object]] = []
    for i, need in zip(members, needs):
        c = m.cid[i]
        cands.append([
            t for t in existing
            if t != src[i]
            and m.census[t][c] - removed.get((t, c), 0) < m.capacity[c]
            and room[t] + total > need
        ])
        if total > need:
            cands[-1].extend(("new", slot) for slot in range(len(members)))
    targets: List[object] = [None] * len(members)
    in_vol: Dict[object, int] = {}

    def rec(j: int, used_new: int, rest: int):
        if j == len(members):
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

    return rec(0, 0, total)


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
    """Check every 2 <= k < ell <= k_max, 2 <= d <= d_max; return the count
    checked and the failures.  A range with no triple is rejected, so an
    empty sweep never passes for a proof."""
    if k_max < 3 or d_max < 2:
        raise ValueError(
            f"the sweep needs k_max >= 3 and d_max >= 2, got k_max={k_max} and d_max={d_max}"
        )
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
    """A worst-case equilibrium P' next to the optimal regrouping P, which
    is `copies` copies of `source_bin`, built on first read."""

    source_bin: Bin
    p_prime: GameConfig
    ratio: Fraction
    copies: int
    scaled: bool
    nash: Optional[NashResult]
    strong: Optional[StrongNashResult] = None

    @cached_property
    def p(self) -> GameConfig:
        return config_from_bins([self.source_bin] * self.copies)


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
    smaller cubes find no room in the full grids of larger classes.  Every
    bin of P is a copy of the packing's bin, verified here once, and every
    bin of P' a copy of a grid that build_homogeneous verified.
    """
    eps_cap = Fraction(1, packing.k_max - 1)
    if packing.epsilon > eps_cap:
        raise ValueError(
            f"epsilon {packing.epsilon} exceeds 1/(k_max-1) = {eps_cap}"
        )
    check = verify_bin(packing.bin)
    if not check:
        raise ValueError(f"the packing's bin is invalid: {check}")
    n, scaled = anarchy_copies(packing, copies_cap)
    prime_bins: List[Bin] = []
    for k, count in packing.counts.grid_bins(n).items():
        grid = build_homogeneous(k, packing.d, packing.epsilon).bin
        prime_bins.extend([grid] * count)
    p_prime = config_from_bins(prime_bins)
    ratio = Fraction(len(prime_bins), n)
    nash = None
    if certify:
        nash = is_nash(p_prime)
        if not nash:
            raise AssertionError(
                f"regrouped config unexpectedly admits moves: {nash.moves[:1]}"
            )
    return AnarchyInstance(packing.bin, p_prime, ratio, n, scaled, nash)


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
    of that cube's grid bin; with certify, the exhaustive search of
    is_strong_nash proves this for every coalition up to the cap.
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
    return replace(inst, strong=strong)


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
    m = config._volumes
    threshold = Fraction(1, 2**config.d)
    sparse = tuple(b for b in sorted(m.iocc) if config.occupied(b) < threshold)
    conditioned = bool(nash_result) and nash_result.is_nash
    total = Fraction(sum(m.iocc.values()), m.scale)
    return SparseBinReport(sparse, threshold, conditioned, len(m.iocc), total)
