"""Selfish cube packing: costs, improving moves, dynamics, equilibria, anarchy.

Each cube is a player whose cost is its volume divided by the occupied
volume of its bin; the social cost is the number of used bins.  A config
answers every per-bin question (occupancy, members, class census,
content, cost) from one bin model: integer volumes over one common
denominator, and each bin's content, scaled onto ints by geometry the
first time it is asked for.  A moved config inherits its parent's model
and recomputes only the bins the move touched; a dynamics step derives
their contents from the old ones in ints (_VolumeModel.carried).
Because insertion cost depends only on volumes, never on positions,
every move and coalition search runs an exact prefilter on those
integers before touching geometry.  Every geometric question goes
through one memoized placement search on ints, keyed by the content of
the residents kept and the incoming classes in one fixed order: an
insertion keeps the whole target bin, a repack re-layout nothing, and a
coalition target what its members leave behind.  Bases are Fractions
only in the moves reported or applied.

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
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, partial
from heapq import nlargest
from itertools import chain, combinations
from math import gcd, lcm
from operator import mul
from typing import (
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .geometry import (
    Bin,
    CubeClass,
    PlacedCube,
    SearchBudgetError,
    _int_boxes,
    _joint_corners,
    _placed,
    as_rational,
    expect_type,
    format_rational,
    verify_bin,
)
from .packing import TypedPacking, build_homogeneous

# Default cap on the copies N of the source bin in an anarchy instance.
COPIES_CAP = 4096
# Most items (N copies of the source bin's cubes) an anarchy instance may
# build, item by item.  The full warm-up P' holds 265,500 items at d=6 and
# 4,030,260 at d=7: the cap admits the first and refuses the second
# before any bin is built, instead of gigabytes of items.
ANARCHY_ITEM_CAP = 1_000_000

# Candidate bases one repack re-layout search may examine before it gives up.
REPACK_NODE_CAP = 200_000
# Items, residents plus the mover, one repack re-layout may place.
REPACK_ITEM_CAP = 8
# Gaining assignments one strong-Nash coalition search may screen.
COALITION_ASSIGNMENT_CAP = 5_000_000


# Placement memo: (content of the residents kept, incoming class indices)
# -> (class, base) per incoming cube, or None; see _place.
_Memo = Dict[Tuple[tuple, Tuple[int, ...]], Optional[tuple]]
_UNASKED = object()  # what _asked reads for a key not searched yet


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


@dataclass(frozen=True)
class _VolumeModel:
    """The one per-bin model of a config: its class volumes and bin
    occupancies as exact integers over one common denominator, the class
    of each item, who sits in each bin, and each bin's content.

    Classes are indexed in one fixed order, by (-side, k): larger cubes
    first, and k tells apart the classes of one side.  A class of side s
    fits at most floor(1/s)^d disjoint open cubes into one bin, whatever
    else sits there (interval-graph colouring per axis).  A bin's content
    is scaled onto ints by geometry when first asked for, or carried.
    """

    scale: int
    vol: List[int]  # class index -> volume * scale
    cid: Dict[int, int]  # item id -> class index
    classes: List[CubeClass]  # class index -> class
    capacity: List[int]  # class index -> floor(1/side)^d
    positions: Mapping[int, Tuple[Fraction, ...]]  # item id -> base
    iocc: Dict[int, int]  # bin -> occupied volume * scale, off the census
    members: Dict[int, List[int]]  # bin -> item ids, ascending
    census: Dict[int, List[int]]  # bin -> resident count per class index
    contents: Dict[int, Tuple[tuple, tuple]]  # bin -> (content, row), once asked

    def content(self, bin_id: Optional[int]) -> Tuple[tuple, tuple]:
        """(content, row) of the bin, empty for an id not in use (None say).
        The content is (unit, sides, pairs): every class side and the sorted
        (class index, base) pairs of the cubes, in ints over the unit geometry
        scales them onto, so it depends on the cubes alone (sorted, not a set:
        coincident cubes stay two).  The row is the pairs in member order."""
        if bin_id not in self.contents:
            ids = self.members.get(bin_id, [])
            cubes = [self.cid[i] for i in ids], [self.positions[i] for i in ids]
            # copies of one bin share a content: comparing their bases (mostly
            # shared Fraction objects) is far cheaper than scaling them
            peers = self._built.setdefault((self.iocc.get(bin_id, 0), len(ids)), [])
            laid = next((c for other, c in peers if other == cubes), None)
            if laid is None:
                cids, bases = cubes
                sides = [c.side for c in self.classes]
                unit, boxes, ints = _int_boxes(
                    bases, [sides[c] for c in cids], sides, self.classes[0].d)
                row = tuple(zip(cids, [lo for lo, _ in boxes]))
                laid = (unit, ints, tuple(sorted(row))), row
                peers.append((cubes, laid))
            self.contents[bin_id] = laid
        return self.contents[bin_id]

    @cached_property
    def _built(self) -> Dict[Tuple[int, int], list]:
        """(occupancy, cube count) -> (cubes, (content, row)) of each built."""
        return {}

    def carried(self, mode: str, item: int, source: int, target: int, fit: tuple) -> dict:
        """The contents of `source` and `target` once `item` moves to the fit
        found, in ints, as content() builds them.  A content's unit is the
        lcm of its sides' and bases' denominators: over a unit U they lie on,
        U/g for g the gcd of U and every int over U, as a/U has the
        denominator U/gcd(U, a).  The target's is the content searched plus
        the layout, on its unit: its own for an insertion, which the new base
        lies on and the old ones need whole, or an empty bin's for a repack,
        whose unit divides all.  The source's is its old one less the mover's
        pair, divided by g, unless it was never built or is left empty."""
        layout = fit[1]
        if mode == "insertion":
            (unit, sides, pairs), row = self.content(target)
            row = row[:(r := bisect_left(self.members[target], item))] + layout + row[r:]
        else:
            (unit, sides, pairs), ids = self.content(None)[0], self.members[target] + [item]
            row = tuple((self.cid[i], base) for i, base in _distribute(self, layout, ids).items())
        contents = {target: ((unit, sides, tuple(sorted(pairs + layout))), row)}
        if source in self.contents and len(self.members[source]) > 1:
            (unit, sides, _), row = self.contents[source]
            row = row[:(r := bisect_left(self.members[source], item))] + row[r + 1:]
            g = gcd(unit, *sides, *chain.from_iterable(base for _, base in row))
            if g > 1:
                unit, sides = unit // g, tuple([v // g for v in sides])
                row = tuple([(c, tuple([v // g for v in base])) for c, base in row])
            contents[source] = (unit, sides, tuple(sorted(row))), row
        return contents

    def regrouped(
        self,
        assignment: Mapping[int, int],
        positions: Mapping[int, Tuple[Fraction, ...]],
        movers: Collection[int],
        touched: Collection[int],
        carried: Optional[Mapping[int, tuple]] = None,
    ) -> "_VolumeModel":
        """The model of `assignment` and `positions`, given that they differ
        from this model's only in the `movers`, which leave or enter the
        bins `touched`.  The per-item data is shared, and only the touched
        bins are recomputed, from the members that stay plus the movers that
        arrive; their contents are those `carried` (see carried), the rest
        dropped, and a touched bin left empty drops out.  Each content has
        its own unit, so no moved base can fall off the grid of a content
        kept."""
        moving = set(movers)
        fresh: Dict[int, List[int]] = {
            b: [i for i in self.members.get(b, ()) if i not in moving] for b in touched
        }
        for i in movers:
            fresh[assignment[i]].append(i)
        iocc, members, census = dict(self.iocc), dict(self.members), dict(self.census)
        contents = {b: c for b, c in self.contents.items() if b not in fresh}
        contents.update(carried or {})
        for b, ids in fresh.items():
            if not ids:
                for table in (iocc, members, census):
                    table.pop(b, None)
                continue
            ids.sort()
            count = [0] * len(self.classes)
            for i in ids:
                count[self.cid[i]] += 1
            iocc[b] = sum(map(mul, count, self.vol))
            members[b], census[b] = ids, count
        return _VolumeModel(self.scale, self.vol, self.cid, self.classes, self.capacity,
                            positions, iocc, members, census, contents)


@dataclass(frozen=True)
class GameConfig:
    """Items plus who-sits-where; every used bin must pass verify_bin."""

    d: int
    items: Tuple[GameItem, ...]
    assignment: Dict[int, int]
    positions: Dict[int, Tuple[Fraction, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        ids = {it.item_id for it in self.items}
        if len(ids) != len(self.items):
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
            expect_type(self.assignment[it.item_id], int)  # a bin id
        for item_id in (*self.assignment, *self.positions):
            if item_id not in ids:
                raise ValueError(f"a bin or position names no item: {item_id!r}")
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
        # cubes unchecked: their classes and bases were checked on the way in
        m = self._volumes
        cube: Dict[int, PlacedCube] = {}
        for c, cls in enumerate(m.classes):
            ids = [i for i, k in m.cid.items() if k == c]
            cube.update(zip(ids, _placed(cls, [m.positions[i] for i in ids])))
        return {b: Bin(self.d, tuple(map(cube.__getitem__, ids)))
                for b, ids in m.members.items()}

    @cached_property
    def _volumes(self) -> _VolumeModel:
        # copies of one bin share class objects, all of dimension d: key each
        # distinct object once by ints, not each item's class by its Fraction
        objects = {id(it.cls): it.cls for it in self.items}
        key = {o: (c.k, c.epsilon.numerator, c.epsilon.denominator) for o, c in objects.items()}
        order = sorted({key[o]: c for o, c in objects.items()}.values(),
                       key=lambda c: (-c.side, c.k))
        rank = {key[id(c)]: n for n, c in enumerate(order)}
        cid = {it.item_id: rank[key[id(it.cls)]] for it in self.items}
        scale = lcm(*(c.volume.denominator for c in order))
        vols = [c.volume.numerator * (scale // c.volume.denominator) for c in order]
        caps = [(c.side.denominator // c.side.numerator) ** self.d for c in order]
        empty = _VolumeModel(scale, vols, cid, order, caps, self.positions, {}, {}, {}, {})
        touched = set(self.assignment.values())
        return empty.regrouped(self.assignment, self.positions, cid, touched)

    def occupied(self, bin_id: int) -> Fraction:
        m = self._volumes
        return Fraction(m.iocc[bin_id], m.scale)

    def item_cost(self, item_id: int) -> Fraction:
        m = self._volumes
        return Fraction(m.vol[m.cid[item_id]], m.iocc[self.assignment[item_id]])

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
        for item_id, (bin_id, base) in updates.items():
            if item_id not in self.assignment:
                raise ValueError(f"unknown item {item_id}")
            if len(base) != self.d:
                raise ValueError(f"item {item_id} has a base not of length d={self.d}")
        return self._moved({i: (expect_type(b, int), tuple(map(as_rational, base)))
                            for i, (b, base) in updates.items()})

    def _moved(self, updates: Mapping[int, tuple], carried: Optional[dict] = None) -> "GameConfig":
        """with_moves past its checks, keeping the contents `carried`."""
        assignment = dict(self.assignment)
        positions = dict(self.positions)
        for item_id, (bin_id, base) in updates.items():
            assignment[item_id] = bin_id
            positions[item_id] = base
        touched = {self.assignment[i] for i in updates} | {assignment[i] for i in updates}
        model = self._volumes.regrouped(assignment, positions, updates, touched, carried)
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


class _MoveScreen:
    """The moves of is_nash, lazily and in its order (item id, then target
    bin), carried along a run of moves.  Each move passes the gain, volume
    and capacity screens and then the memoized placement search; turn one
    into a MoveProposal by _proposal.

    Every test on (item i, target t) reads i only through its type,
    (occ(source), class), and only the gain test reads occ(source): the
    repack cap, the volume and capacity tests and the placement read t
    and the class alone.  So the screen keeps, per type, an entry for each
    target that passes the gain test, and per target and class whether a
    mover fits.  That fit is probed (the other tests, then the search) the
    first time a walk reaches an entry that needs it, and an entry whose
    fit fails is dropped.  Each item walks its type's entries in target
    order, skipping its own source, so the moves, their order, the
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
        if mode not in ("insertion", "repack"):
            raise ValueError(f"unknown feasibility mode {mode!r}")
        self.mode = mode
        self.memo: _Memo = {}
        m = config._volumes
        self.ids = sorted(m.cid)
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
        # type -> {target: its fit, None until probed}, in target order
        types: Dict[Tuple[int, int], Dict[int, Optional[tuple]]] = {}
        # per item, in id order: (id, class, source bin, type entries)
        self.walk = []
        bins = sorted(iocc)
        for i in self.ids:
            c, s = cid[i], src[i]
            occ = iocc[s]
            entries = types.get((occ, c))
            if entries is None:
                v = m.vol[c]
                entries = types[occ, c] = {
                    t: fit for t in bins
                    if iocc[t] + v > occ and (fit := fits[t].get(c)) is not False
                }
            self.walk.append((i, c, s, entries))

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
            if m.iocc[t] + m.vol[c] <= m.scale and m.census[t][c] < m.capacity[c]:
                if self.mode == "insertion":
                    kept, key, cap = m.content(t)[0], (c,), None
                else:
                    # re-lay the whole bin: an empty bin takes residents plus mover
                    kept, cap = m.content(None)[0], REPACK_NODE_CAP
                    key = tuple(sorted([m.cid[r] for r in residents] + [c]))
                try:
                    layout = _asked(self.config, self.memo, kept, key, cap)
                except SearchBudgetError as exc:
                    raise RepackSearchError(f"re-layout of bin {t}: {exc}") from exc
                if layout is not None:
                    fits[c] = kept[0], layout
        if fits[c]:
            entries[t] = fits[c]
        else:
            del entries[t]
        return fits[c]

    def moves(self) -> Iterator[Tuple[int, int, int, tuple]]:
        """(item, source, target, fit) of each move, in move order, probing
        entries as they are reached; fit is (unit, layout), the layout's
        bases ints over unit.  Each item walks its type's live entries, in
        target order: a dict keeps insertion order, and a probe drops only
        its own entry, so the walk's copy stays current."""
        for i, c, s, entries in self.walk:
            for t in tuple(entries):
                if t != s:
                    fit = entries[t] or self._probe(entries, c, t)
                    if fit:
                        yield i, s, t, fit

    def pick(self, policy: str, rng: random.Random) -> Optional[tuple]:
        """The move a dynamics step under `policy` applies, or None;
        "random" draws with rng.choice from the walk's moves."""
        if policy == "first":
            return next(self.moves(), None)
        if policy == "best":
            m = self.config._volumes
            return max(self.moves(), key=lambda mv: (_gain(m, *mv[:3]), -mv[0]),
                       default=None)
        pool = list(self.moves())
        return rng.choice(pool) if pool else None


def _gain(m: _VolumeModel, item: int, source: int, target: int) -> Fraction:
    """cost_before - cost_after of the move's proposal."""
    v = m.vol[m.cid[item]]
    before, joined = m.iocc[source], m.iocc[target] + v
    return Fraction(v * (joined - before), before * joined)


def _proposal(
    config: GameConfig, mode: str, item: int, source: int, target: int, fit: tuple
) -> MoveProposal:
    m = config._volumes
    unit, layout = fit
    movers = [item] if mode == "insertion" else m.members[target] + [item]
    assigned = {i: tuple([Fraction(v, unit) for v in base])
                for i, base in _distribute(m, layout, movers).items()}
    relayout = None if mode == "insertion" else tuple(assigned.items())
    v = m.vol[m.cid[item]]
    costs = (Fraction(v, m.iocc[source]), Fraction(v, m.iocc[target] + v))
    return MoveProposal(item, source, target, *costs, assigned[item], relayout)


def _place(
    config: GameConfig,
    kept: Tuple[int, Tuple[int, ...], tuple],
    key: Tuple[int, ...],
    node_cap: Optional[int] = None,
) -> Optional[Tuple[Tuple[int, Tuple[int, ...]], ...]]:
    """(class index, base) per incoming class of `key` (sorted class
    indices), placed jointly among the residents `kept` (a content; no
    pairs for an empty bin), bases in ints over its unit; None if they do
    not fit.  Callers ask through _asked, which keeps it in memo[kept, key],
    and hand bases to items, as Fractions, through _distribute.

    geometry's integer core is exact and complete, and its answer depends
    only on the residents and the incoming sides in the order given; a
    sorted key searches the classes in the one order (-side, k), so a memo
    entry depends on its key alone.  The residents' bases and every side
    are read off the content, in ints over its unit: nothing is scaled here.
    """
    unit, sides, pairs = kept
    boxes = [(base, tuple([v + sides[c] for v in base])) for c, base in pairs]
    found = _joint_corners(boxes, unit, [sides[c] for c in key], config.d, node_cap)
    return None if found is None else tuple(zip(key, found))


def _asked(
    config: GameConfig,
    memo: _Memo,
    kept: Tuple[int, Tuple[int, ...], tuple],
    key: Tuple[int, ...],
    node_cap: Optional[int] = None,
) -> Optional[Tuple[Tuple[int, Tuple[int, ...]], ...]]:
    """memo[kept, key], searched by _place the first time it is asked: a
    hit hashes the content once."""
    layout = memo.get((kept, key), _UNASKED)
    if layout is _UNASKED:
        layout = memo[kept, key] = _place(config, kept, key, node_cap)
    return layout


def _distribute(
    m: _VolumeModel,
    layout: Iterable[Tuple[int, Tuple[int, ...]]],
    items: Iterable[int],
) -> Dict[int, Tuple[int, ...]]:
    """Hand the found bases back to concrete items, in id order, matching
    by class index."""
    pool: Dict[int, List[Tuple[int, ...]]] = {}
    for c, base in layout:
        pool.setdefault(c, []).append(base)
    return {i: pool[m.cid[i]].pop() for i in sorted(items)}


def _updates(move: MoveProposal) -> Dict[int, Tuple[int, Tuple[Fraction, ...]]]:
    """Item -> (bin, base) of the move: the mover, then its relayout."""
    return {i: (move.target_bin, base)
            for i, base in ((move.item_id, move.base), *(move.relayout or ()))}


def apply_move(config: GameConfig, move: MoveProposal) -> GameConfig:
    return config.with_moves(_updates(move))


@dataclass(frozen=True)
class NashResult:
    moves: Tuple[MoveProposal, ...]  # every improving move; Nash iff none
    geometry_checks: int = 0  # placement searches run, memo hits not counted
    # the config screened, the one sparse_bin_report lets it condition
    config: Optional[GameConfig] = field(default=None, compare=False, repr=False)

    @property
    def is_nash(self) -> bool:
        return not self.moves

    def __bool__(self) -> bool:
        return self.is_nash


def is_nash(config: GameConfig, mode: str = "insertion") -> NashResult:
    """Every strictly improving single-item migration, deterministically
    ordered (item id, then target bin): the config is Nash iff there is none.

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
    screen = _MoveScreen(config, mode)
    moves = tuple(_proposal(config, mode, *mv) for mv in screen.moves())
    return NashResult(moves, len(screen.memo), config)


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
    applied: Tuple[MoveProposal, ...]
    certificate: Optional[NashResult]  # the final config's, None if out of budget
    geometry_checks: int = 0  # placement searches over the whole run

    @property
    def steps(self) -> int:
        return len(self.applied)

    @property
    def status(self) -> str:
        return "budget-exhausted" if self.certificate is None else "nash"


def best_response_dynamics(
    config: GameConfig,
    policy: str = "first",
    *,
    max_steps: int = 10_000,
    seed: int = 0,
    mode: str = "insertion",
) -> DynamicsResult:
    """Apply improving moves until none remain or the step budget runs out.

    Each step screens the moves of is_nash and builds a proposal
    only for the one it applies: "first" takes the first, "random" draws
    one with the seeded generator, and "best" takes the largest cost drop,
    the lowest item id among equals, and else the first in move order.
    Every step shares one placement memo: moves keep the items, so the
    memo's keys (contents and class indices) mean the same in each config,
    and each config inherits its parent's bin model, with the contents of
    the two bins a step touches derived in ints (_VolumeModel.carried).  The
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
    if expect_type(max_steps, int) < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    rng = random.Random(seed)
    applied: List[MoveProposal] = []
    current = config
    last_potential = sorted(current._volumes.iocc.values(), reverse=True)
    screen = _MoveScreen(current, mode)
    for _ in range(max_steps):
        searched = len(screen.memo)
        chosen = screen.pick(policy, rng)
        if chosen is None:
            current.validate()
            total = len(screen.memo)
            cert = NashResult((), total - searched, current)
            return DynamicsResult(current, tuple(applied), cert, total)
        move = _proposal(current, mode, *chosen)
        current = current._moved(_updates(move), current._volumes.carried(mode, *chosen))
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
    return DynamicsResult(current, tuple(applied), None, len(screen.memo))


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
        if len(set(map(len, vars(self).values()))) > 1:  # every field is per member
            raise ValueError("a coalition needs one target, base and pair of costs per member")
        for before, after in zip(self.costs_before, self.costs_after):
            if not after < before:
                raise ValueError("every coalition member must strictly improve")


@dataclass(frozen=True)
class StrongNashResult:
    max_coalition_size: int
    violation: Optional[CoalitionProposal]  # the first gaining coalition found
    coalitions_checked: int
    assignments_checked: int
    geometry_checks: int = 0

    @property
    def is_strong_nash(self) -> bool:
        return self.violation is None

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
    (geometry_checks counts its keys, one search each).  Every target is a
    bin id: a used bin, or a fresh one numbered from fresh_base, one past
    the largest used id; fresh bins are taken in order, and a target cannot
    take a member whose class would exceed its per-bin capacity there.

    Source screen: with V the sum of the cap's largest item volumes, t_i
    ends at most at occ(t_i) + V if used and at V if fresh, so item i is
    dropped unless max(occ(t) over used t != src_i, or 0) + V > occ(src_i).

    Orbits.  Let pi permute the used bins, each onto a bin of equal content,
    carrying each item to the item of the same slot there.  Pi maps the
    config onto itself, so C admits a gaining deviation iff pi(C) does.
    Coalitions of one key (_Orbits.signature) are related by such a pi
    (pair the touched bins of equal entries, then the other bins of each
    content), so only one per key is searched: its least sorted tuple of
    item ids.  _Orbits.levels visits these size by size, in id order, so
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
    if expect_type(max_coalition_size, int) < 1:
        raise ValueError("coalition size cap must be >= 1")
    m = config._volumes
    src = config.assignment
    existing = sorted(m.iocc)
    fresh_base = (max(existing) + 1) if existing else 0
    # the test depends on the source bin alone: keep the bins that pass it
    reach = sum(nlargest(max_coalition_size, map(m.vol.__getitem__, m.cid.values())))
    fullest = sorted(existing, key=m.iocc.__getitem__, reverse=True)[:2]
    sources = [
        b for b in existing
        if max((m.iocc[t] for t in fullest if t != b), default=0) + reach > m.iocc[b]
    ]
    types = _Orbits(m, sources, by_class=True)
    gaining = partial(_gaining_assignments, m, src, existing, fresh_base)
    live = {
        pattern: coalition
        for level in types.levels(max_coalition_size)
        for coalition, pattern in level
        if next(gaining(coalition), None)
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
            for targets, after in gaining(coalition):
                assignments_checked += 1
                if assignments_checked > COALITION_ASSIGNMENT_CAP:
                    raise CoalitionSearchError(
                        f"coalition search exceeded {COALITION_ASSIGNMENT_CAP} assignments"
                    )
                violation = _coalition_move(config, memo, coalition, targets, after)
                if violation is not None:
                    return StrongNashResult(
                        max_coalition_size, violation, coalitions_checked,
                        assignments_checked, len(memo),
                    )
    return StrongNashResult(
        max_coalition_size, None, coalitions_checked, assignments_checked, len(memo)
    )


class _Orbits:
    """The items of the given source bins, each labelled (bin, content id of
    the bin, slot): its place among the bin's cubes sorted by (class, base),
    coincident cubes in id order, or with `by_class` its class index."""

    def __init__(self, m: _VolumeModel, sources: Iterable[int], by_class: bool = False):
        self.m = m
        ids: Dict[tuple, int] = {}
        self.label: Dict[int, Tuple[int, int, int]] = {}
        for b in sources:
            content, row = m.content(b)
            k = ids.setdefault(content, len(ids))
            slots = [i for _, i in sorted(zip(row, m.members[b]))]
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
        sub-patterns), in id order.

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
    targets: Sequence[int],
    after: Mapping[int, int],
) -> Optional[CoalitionProposal]:
    """The coalition's deviation to `targets` (per member a bin id, used or
    fresh) if every target takes its incoming members with the residents
    kept in place, else None.  `after` is each target's occupancy after
    the move, times scale; targets are searched in id order."""
    m = config._volumes
    placements: Dict[int, Tuple[Fraction, ...]] = {}
    for t in sorted(after):
        movers = [i for i, u in zip(members, targets) if u == t]
        (unit, sides, pairs), row = m.content(t)
        residents = list(pairs)
        for i in members:
            if config.assignment[i] == t:
                residents.remove(row[bisect_left(m.members[t], i)])
        kept = (unit, sides, tuple(residents))
        layout = _asked(config, memo, kept, tuple(sorted(m.cid[i] for i in movers)))
        if layout is None:
            return None
        for i, base in _distribute(m, layout, movers).items():
            placements[i] = tuple([Fraction(v, unit) for v in base])
    return CoalitionProposal(
        tuple(members),
        tuple(targets),
        tuple(placements[i] for i in members),
        tuple(config.item_cost(i) for i in members),
        tuple(Fraction(m.vol[m.cid[i]], after[t]) for i, t in zip(members, targets)),
    )


def _gaining_assignments(
    m: _VolumeModel,
    src: Mapping[int, int],
    existing: Sequence[int],
    fresh_base: int,
    members: Sequence[int],
) -> Iterator[Tuple[Tuple[int, ...], Dict[int, int]]]:
    """(targets, after) per assignment under which every member gains, in
    product order over the members' target lists; the branch and bound of
    is_strong_nash.  targets holds a bin id per member, and after maps
    each target to its occupancy after the move, times scale.

    Member i's list holds the used bins t != src_i where its class stays
    within capacity and that end above occ(src_i) if every member joins
    them, then the fresh bins fresh_base, fresh_base + 1, ... (one per
    member) if the whole coalition beats occ(src_i).  room[t] is what
    stays in t once the coalition has left (0 for a fresh bin).  Fresh
    bins are taken in order: a fresh bin only once the one before it
    holds an earlier member.
    """
    fresh = range(fresh_base, fresh_base + len(members))
    room = {t: m.iocc[t] for t in existing} | dict.fromkeys(fresh, 0)
    before = {t: t - 1 for t in fresh[1:]}
    removed: Dict[Tuple[int, int], int] = {}
    vols = [m.vol[m.cid[i]] for i in members]
    for i, v in zip(members, vols):
        room[src[i]] -= v
        removed[src[i], m.cid[i]] = removed.get((src[i], m.cid[i]), 0) + 1
    needs = [m.iocc[src[i]] for i in members]
    total = sum(vols)
    cands: List[List[int]] = []
    for i, need in zip(members, needs):
        c = m.cid[i]
        cands.append([
            t for t in existing
            if t != src[i]
            and m.census[t][c] - removed.get((t, c), 0) < m.capacity[c]
            and room[t] + total > need
        ])
        if total > need:
            cands[-1].extend(fresh)
    targets: List[int] = [0] * len(members)
    in_vol = dict.fromkeys(room, 0)

    def rec(j: int, rest: int):
        if j == len(members):
            yield tuple(targets), {t: room[t] + in_vol[t] for t in targets}
            return
        v = vols[j]
        rest -= v
        for t in cands[j]:
            if t in before and not in_vol[before[t]]:
                continue
            targets[j] = t
            in_vol[t] += v
            for i in range(j + 1):
                u = targets[i]
                if room[u] + in_vol[u] + rest <= needs[i]:
                    break
            else:
                yield from rec(j + 1, rest)
            in_vol[t] -= v

    return rec(0, total)


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
    bin of P' a copy of a grid that build_homogeneous verified; it also
    refuses an epsilon past 1/(k-1), which no built or read packing holds.
    """
    check = verify_bin(packing.bin)
    if not check:
        raise ValueError(f"the packing's bin is invalid: {check}")
    n, scaled = anarchy_copies(packing, copies_cap)
    if n * len(packing.bin.cubes) > ANARCHY_ITEM_CAP:
        raise ValueError(
            f"{n} copies of {len(packing.bin.cubes)} cubes exceed the "
            f"{ANARCHY_ITEM_CAP} items an anarchy instance builds"
        )
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
    the largest-side volume criterion), strictly lowering its cost.  A
    nash_result conditions the report only on the config it screened; one
    of another config raises ValueError.
    """
    if nash_result is not None and nash_result.config != config:
        raise ValueError("nash_result certifies another config, not this one")
    m = config._volumes
    threshold = Fraction(1, 2**config.d)
    sparse = tuple(b for b in sorted(m.iocc) if m.iocc[b] << config.d < m.scale)
    conditioned = bool(nash_result)
    total = Fraction(sum(m.iocc.values()), m.scale)
    return SparseBinReport(sparse, threshold, conditioned, len(m.iocc), total)
