"""Costs, moves, dynamics, Nash and strong-Nash search, anarchy instances."""

import dataclasses
import itertools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubepack.game import (
    AnarchyInstance,
    CoalitionProposal,
    CoalitionSearchError,
    GameConfig,
    GameItem,
    MoveProposal,
    RepackSearchError,
    _gaining_assignments,
    _MoveScreen,
    _Orbits,
    _place,
    _proposal,
    apply_coalition,
    apply_move,
    best_response_dynamics,
    config_from_bins,
    config_from_dict,
    config_to_dict,
    homogeneous_mixture,
    is_nash,
    is_strong_nash,
    meir_moser_predicate,
    poa_instance,
    potential,
    prop1_check,
    prop1_sweep,
    sparse_bin_report,
    spoa_instance,
)
from cubepack.geometry import (
    Bin,
    CubeClass,
    PlacedCube,
    _joint_corners,
    find_free_position,
    find_joint_positions,
    verify_bin,
)
from cubepack.languages import SeparatedFamily, build_separated_family, warmup_family
from cubepack.packing import build_homogeneous, build_packing
from test_geometry import _lattice_class, _lattice_joint_oracle


def two_items_config():
    # d=1 sides 1/4 and 1/8 in one bin: costs 2/3 and 1/3
    big = CubeClass(4, 0, 1)
    small = CubeClass(8, 0, 1)
    items = (GameItem(0, big), GameItem(1, small))
    return GameConfig(1, items, {0: 0, 1: 0}, {0: (F(0),), 1: (F(1, 4),)})


def remark_packing():
    return build_packing(warmup_family(3), F(1, 9))


def power_of_two_toy_packing():
    family = build_separated_family(2, (2, 4), seed=0)
    return build_packing(family, F(1, 16))


def _warmup_slice(d, classes, epsilon):
    family = warmup_family(d)
    sliced = SeparatedFamily(
        d, classes, {k: family.languages[k] for k in classes}, family.fsets,
        family.seed, family.mode,
    )
    return build_packing(sliced, epsilon)


def reproduce_spoa_packing(d):
    """The packing of reproduce's SPoA stage at d >= 4: the (2, 4) slice of
    the warm-up family at epsilon 1/16."""
    return _warmup_slice(d, (2, 4), F(1, 16))


# ---------------------------------------------------------------------------
# costs and configs


def test_item_cost_shared_bin():
    cfg = two_items_config()
    assert cfg.item_cost(0) == F(2, 3)
    assert cfg.item_cost(1) == F(1, 3)
    assert cfg.social_cost() == 1


def test_sole_item_costs_one():
    cls = CubeClass(3, F(1, 9), 2)
    cfg = GameConfig(2, (GameItem(0, cls),), {0: 0}, {0: (F(0), F(0))})
    assert cfg.item_cost(0) == 1
    assert cfg.social_cost() == 1


def test_homogeneous_bin_costs():
    cfg = homogeneous_mixture([3], 2, F(1, 9))
    for it in cfg.items:
        assert cfg.item_cost(it.item_id) == F(1, 4)


def test_empty_config_social_cost():
    cfg = GameConfig(2, (), {}, {})
    assert cfg.social_cost() == 0


def test_cost_conservation_random_configs():
    rng = random.Random(20260815)
    for _ in range(10):
        bins = []
        for _ in range(rng.randint(1, 3)):
            k = rng.choice([2, 3, 4])
            bins.append(build_homogeneous(k, 2, F(1, 16)).bin)
        cfg = config_from_bins(bins)
        assert cfg.social_cost() == len(bins)


def test_config_validation_rejects_overlap():
    cls = CubeClass(3, F(1, 9), 2)
    items = (GameItem(0, cls), GameItem(1, cls))
    cfg = GameConfig(
        2, items, {0: 0, 1: 0}, {0: (F(0), F(0)), 1: (F(0), F(0))}
    )
    with pytest.raises(ValueError):
        cfg.validate()


def test_config_rejects_a_base_of_the_wrong_length():
    # a one-coordinate base in a d=2 config used to build, by the constructor
    # or by a move, and is_nash then certified it with no placement search
    cls = CubeClass(2, F(1, 9), 2)
    items = (GameItem(0, cls), GameItem(1, cls))
    with pytest.raises(ValueError, match="item 0 has a base not of length d=2"):
        GameConfig(2, items, {0: 0, 1: 1}, {0: (F(0),), 1: (F(0), F(0))})
    cfg = GameConfig(2, items, {0: 0, 1: 1}, {0: (F(0), F(0)), 1: (F(0), F(0))})
    with pytest.raises(ValueError, match="item 0 has a base not of length d=2"):
        cfg.with_moves({0: (1, (F(1, 2),))})


def test_config_json_round_trip():
    cfg = homogeneous_mixture([2, 3], 2, F(1, 9))
    payload = config_to_dict(cfg)
    assert payload["d"] == 2
    assert payload["cubes"][0]["epsilon"] == "1/9"
    again = config_from_dict(payload)
    assert again == cfg


def test_a_config_listed_out_of_id_order_plays_as_in_id_order():
    # A file may list its cubes in any order.  The bin model keeps each
    # bin's members in id order, the order moves and config_to_dict use,
    # so verdicts, moves, runs and counters read as on the sorted file.
    payloads = [config_to_dict(homogeneous_mixture([2, 3], 2, F(1, 9)))]
    payloads += [config_to_dict(cfg) for cfg in _start_states(5, 3)]
    for payload in payloads:
        ordered = config_from_dict(payload)
        flipped = config_from_dict(dict(payload, cubes=payload["cubes"][::-1]))
        assert is_nash(flipped).moves == is_nash(ordered).moves
        for seed in range(3):
            a = best_response_dynamics(ordered, "random", seed=seed)
            b = best_response_dynamics(flipped, "random", seed=seed)
            assert b.applied == a.applied
            assert config_to_dict(b.config) == config_to_dict(a.config)
        assert is_strong_nash(flipped, 2) == is_strong_nash(ordered, 2)
        for cfg in (ordered, flipped):
            assert all(ids == sorted(ids) for ids in cfg._volumes.members.values())


# ---------------------------------------------------------------------------
# improving moves and Nash checks


def underfilled_pair():
    """Bin 0: one lone class-3 cube; bin 1: grid with 3 of 4 slots filled."""
    cls = CubeClass(3, F(1, 9), 2)
    side = cls.side
    items = tuple(GameItem(i, cls) for i in range(4))
    positions = {
        0: (F(0), F(0)),
        1: (F(0), F(0)),
        2: (side, F(0)),
        3: (F(0), side),
    }
    return GameConfig(2, items, {0: 0, 1: 1, 2: 1, 3: 1}, positions)


def test_lone_cube_joins_fuller_bin():
    cfg = underfilled_pair()
    moves = is_nash(cfg).moves
    assert len(moves) == 1
    move = moves[0]
    assert (move.item_id, move.source_bin, move.target_bin) == (0, 0, 1)
    assert move.cost_before == 1
    assert move.cost_after == F(1, 4)
    after = apply_move(cfg, move)
    after.validate()
    assert after.social_cost() == 1
    assert is_nash(after)


def test_homogeneous_mixture_is_nash():
    cfg = homogeneous_mixture([2, 3], 2, F(1, 9))
    result = is_nash(cfg)
    assert result
    assert result.moves == ()


@pytest.mark.parametrize("d", [2, 3])
def test_mixture_nash_sweep(d):
    # every distinct-class mixture from {2..5} at the largest admissible eps
    import itertools

    for r in (2, 3):
        for classes in itertools.combinations(range(2, 6), r):
            eps = F(1, max(classes) - 1)
            cfg = homogeneous_mixture(classes, d, eps)
            assert is_nash(cfg), (d, classes)


@pytest.mark.parametrize("d", [2, 3])
def test_two_grid_pairs_are_nash(d):
    # all two-bin full-grid pairs with classes up to 6
    import itertools

    for k, ell in itertools.combinations(range(2, 7), 2):
        eps = F(1, ell - 1)
        cfg = homogeneous_mixture([k, ell], d, eps)
        assert is_nash(cfg), (d, k, ell)


def test_nash_geometry_checks_do_not_grow_with_copies():
    # n copies each of a full class-2 and a full class-3 grid bin.  Every
    # item gains by volume from joining another copy of its grid, and the
    # class-2 cubes from joining a class-3 grid, but none fits.  Whatever n
    # is, those probes ask three placement questions: a class-2 cube into
    # either grid, a class-3 cube into a class-3 grid.  A full grid already
    # holds its class's capacity, so two are answered without a search.
    grids = [build_homogeneous(k, 2, F(1, 9)).bin for k in (2, 3)]
    for n in (2, 3, 5):
        result = is_nash(config_from_bins(grids * n))
        assert result
        assert result.geometry_checks == 1


def test_single_bin_config_has_no_moves():
    cfg = homogeneous_mixture([3], 2, F(1, 9))
    assert is_nash(cfg).moves == ()
    assert is_nash(cfg)


def test_move_proposal_requires_strict_decrease():
    with pytest.raises(ValueError):
        MoveProposal(0, 0, 1, F(1, 2), F(1, 2), (F(0),))


def test_repack_mode_finds_rearranged_fit():
    # d=1: two side-3/8 cubes placed so every free gap is under 1/4, yet
    # total volume leaves room; only a re-layout admits the 1/4 mover
    three_eighths = CubeClass(3, F(1, 8), 1)
    quarter = CubeClass(4, 0, 1)
    items = (
        GameItem(0, three_eighths),
        GameItem(1, three_eighths),
        GameItem(2, quarter),
    )
    cfg = GameConfig(
        1,
        items,
        {0: 0, 1: 0, 2: 1},
        {0: (F(3, 16),), 1: (F(3, 5),), 2: (F(0),)},
    )
    assert is_nash(cfg, "insertion").moves == ()
    moves = is_nash(cfg, "repack").moves
    assert len(moves) == 1
    move = moves[0]
    assert move.item_id == 2
    assert move.relayout is not None
    after = apply_move(cfg, move)
    after.validate()
    assert after.social_cost() == 1


def test_repack_cap_enforced():
    cfg = homogeneous_mixture([2, 5], 2, F(1, 16))
    with pytest.raises(RepackSearchError):
        is_nash(cfg, "repack").moves


def test_repack_cap_raises_at_the_first_target_in_walk_order():
    # Items 1-8 fill bin 0 and items 9-16 bin 1, eight side-1/5 cubes each;
    # item 0 sits alone in bin 2.  Item 0 walks first, and the first of its
    # targets past the repack cap is bin 0, so every walk must name bin 0.
    fifth = CubeClass(5, 0, 2)
    spots = [(F(x, 5), F(y, 5)) for x in range(3) for y in range(3)][:8]
    bins = {0: 2, **{i: 0 for i in range(1, 9)}, **{i: 1 for i in range(9, 17)}}
    bases = {0: (F(0), F(0)), **{i: spots[(i - 1) % 8] for i in range(1, 17)}}
    cfg = GameConfig(2, tuple(GameItem(i, fifth) for i in range(17)), bins, bases)
    cfg.validate()
    with pytest.raises(RepackSearchError, match="bin 0 holds 8 items"):
        is_nash(cfg, "repack").moves
    for policy in ("first", "best", "random"):
        with pytest.raises(RepackSearchError, match="bin 0 holds 8 items"):
            best_response_dynamics(cfg, policy, mode="repack")


@st.composite
def repack_lattice_configs(draw):
    """Two or three bins of at most 4 cubes each, sides and bases on the 1/L
    lattice, each cube at a drawn base that is still free.  Scattered bases
    leave fragmented gaps, so some movers fit only after a re-layout.

    Returns the config, L, and each item's (lattice side, bin).
    """
    d = draw(st.integers(1, 2))
    lattice = draw(st.integers(2, 8 if d == 1 else 4))
    items, assignment, positions, units = [], {}, {}, {}
    for b in range(draw(st.integers(2, 3))):
        boxes = []
        for _ in range(draw(st.integers(1, 4))):
            q = draw(st.integers(1, lattice))
            x = tuple(draw(st.integers(0, lattice - q)) for _ in range(d))
            if not all(
                any(xi + q <= bi or bi + m <= xi for xi, bi in zip(x, base))
                for base, m in boxes
            ):
                continue
            boxes.append((x, q))
            item_id = len(items)
            items.append(
                GameItem(item_id, _lattice_class(draw(st.integers(0, 1)), q, lattice, d))
            )
            assignment[item_id] = b
            positions[item_id] = tuple(F(xi, lattice) for xi in x)
            units[item_id] = (q, b)
    config = GameConfig(d, tuple(items), assignment, positions)
    return config, lattice, units


@settings(deadline=None)
@given(repack_lattice_configs())
def test_repack_matches_lattice_oracle(case):
    # A repack move to bin t is proposed iff the mover gains by volume and
    # the residents of t plus the mover fit together on the 1/L lattice,
    # which on lattice sides decides whether they fit at all.
    cfg, lattice, units = case
    cfg.validate()
    occ = {}
    for q, b in units.values():
        occ[b] = occ.get(b, F(0)) + F(q, lattice) ** cfg.d
    expected = []
    for item_id, (q, src) in sorted(units.items()):
        for target in sorted(occ):
            if target == src or not occ[target] + F(q, lattice) ** cfg.d > occ[src]:
                continue
            residents = [m for m, b in units.values() if b == target]
            if _lattice_joint_oracle([], residents + [q], lattice, cfg.d):
                expected.append((item_id, target))
    moves = is_nash(cfg, "repack").moves
    assert [(m.item_id, m.target_bin) for m in moves] == expected
    for move in moves:
        after = apply_move(cfg, move)
        after.validate()
        assert move.cost_before == cfg.item_cost(move.item_id)
        assert move.cost_after == after.item_cost(move.item_id)
        assert move.cost_after < move.cost_before


def test_repack_search_budget_exhausted(monkeypatch):
    # Seven d=2 cubes of total volume under 1 with no joint layout; any six
    # of them fit.  The lone seventh cube gains by joining the other six, so
    # repack searches a re-layout of all seven and must give up at its budget.
    spec = [(2, F(1, 4)), (4, F(1, 2)), (3, 0), (4, F(1, 4)), (4, F(1, 8)), (4, 0)]
    classes = [CubeClass(k, eps, 2) for k, eps in spec] + [CubeClass(5, F(1, 4), 2)]
    layout = find_joint_positions([], [c.side for c in classes[:6]], 2)
    cfg = GameConfig(
        2,
        tuple(GameItem(i, c) for i, c in enumerate(classes)),
        {i: 0 if i < 6 else 1 for i in range(7)},
        {i: layout[i] if i < 6 else (F(0), F(0)) for i in range(7)},
    )
    cfg.validate()
    monkeypatch.setattr("cubepack.game.REPACK_NODE_CAP", 2_000)
    with pytest.raises(RepackSearchError, match="budget of candidate bases"):
        is_nash(cfg, "repack").moves


def test_volume_screen_skips_overfull_target(monkeypatch):
    # Bin 0 holds two side-1/2 and three side-1/3 cubes (volume 5/6).  The
    # lone side-1/2 cube in bin 1 gains by volume from joining it, but 5/6 +
    # 1/4 > 1 already proves it cannot fit, so no geometric search may run:
    # a verdict of "no move" instead of a spent repack budget.
    half, third = CubeClass(2, 0, 2), CubeClass(3, 0, 2)
    classes = [half, half, third, third, third, half]
    bases = [(0, 0), (F(1, 2), 0), (0, F(1, 2))]
    bases += [(F(1, 3), F(1, 2)), (F(2, 3), F(1, 2)), (0, 0)]
    cfg = GameConfig(
        2,
        tuple(GameItem(i, c) for i, c in enumerate(classes)),
        {i: 0 if i < 5 else 1 for i in range(6)},
        {i: tuple(F(x) for x in b) for i, b in enumerate(bases)},
    )
    cfg.validate()
    assert cfg.occupied(1) < cfg.occupied(0) + half.volume == F(13, 12)

    def no_search(*args, **kwargs):
        raise AssertionError("geometric search ran on an overfull target")

    monkeypatch.setattr("cubepack.game._joint_corners", no_search)
    assert is_nash(cfg, "insertion").moves == ()
    assert is_nash(cfg, "repack").moves == ()


def _reference_moves(cfg, mode):
    """is_nash's moves without a memo: every (item, target) pair that
    passes the volume screens gets its own Fraction costs and its own
    geometric search over the target's residents."""
    occ = {
        b: sum((c.cls.volume for c in bn.cubes), F(0)) for b, bn in cfg.bins_map.items()
    }
    moves = []
    for it in sorted(cfg.items, key=lambda x: x.item_id):
        src = cfg.assignment[it.item_id]
        for target in sorted(occ):
            if target == src or not occ[target] + it.cls.volume > occ[src]:
                continue
            if occ[target] + it.cls.volume > 1:
                continue
            costs = (it.cls.volume / occ[src], it.cls.volume / (occ[target] + it.cls.volume))
            residents = [o for o in cfg.items if cfg.assignment[o.item_id] == target]
            if mode == "insertion":
                cubes = [PlacedCube(o.cls, cfg.positions[o.item_id]) for o in residents]
                base = find_free_position(cubes, it.cls.side, cfg.d)
                if base is not None:
                    moves.append(MoveProposal(it.item_id, src, target, *costs, base))
                continue
            classes = sorted(
                [o.cls for o in residents] + [it.cls], key=lambda c: (-c.side, c.k)
            )
            bases = find_joint_positions([], [c.side for c in classes], cfg.d)
            if bases is None:
                continue
            pool = {}
            for cls, base in zip(classes, bases):
                pool.setdefault(cls, []).append(base)
            assigned = {
                o.item_id: pool[o.cls].pop()
                for o in sorted(residents + [it], key=lambda x: (-x.cls.side, x.item_id))
            }
            moves.append(
                MoveProposal(
                    it.item_id, src, target, *costs, assigned[it.item_id],
                    tuple(sorted(assigned.items())),
                )
            )
    return tuple(moves)


@st.composite
def repeated_content_configs(draw):
    """Two to five bins, each a copy of one of up to three drawn contents.

    A content is one to four cubes of a drawn lattice side plus up to two
    of another, each at a drawn free lattice base, so bins repeat exactly,
    hold several items of one class, and leave fragmented gaps.
    """
    d = draw(st.integers(1, 2))
    lattice = draw(st.integers(2, 8 if d == 1 else 5))
    contents = []
    for _ in range(draw(st.integers(1, 3))):
        boxes = []
        for q, count in ((draw(st.integers(1, lattice)), draw(st.integers(1, 4))),
                         (draw(st.integers(1, lattice)), draw(st.integers(0, 2)))):
            for _ in range(count):
                x = tuple(draw(st.integers(0, lattice - q)) for _ in range(d))
                if all(
                    any(xi + q <= bi or bi + m <= xi for xi, bi in zip(x, base))
                    for base, m in boxes
                ):
                    boxes.append((x, q))
        contents.append(boxes)
    items, assignment, positions = [], {}, {}
    for b in range(draw(st.integers(2, 5))):
        for x, q in contents[draw(st.integers(0, len(contents) - 1))]:
            item_id = len(items)
            items.append(GameItem(item_id, _lattice_class(q % 2, q, lattice, d)))
            assignment[item_id] = b
            positions[item_id] = tuple(F(xi, lattice) for xi in x)
    return GameConfig(d, tuple(items), assignment, positions)


@settings(deadline=None)
@given(repeated_content_configs())
def test_moves_match_unmemoized_reference(cfg):
    # The placement memo (keyed by the content of the residents kept and
    # the incoming classes, so shared by bins of equal content) must not
    # change a single proposal, base or relayout.
    cfg.validate()
    for mode in ("insertion", "repack"):
        assert is_nash(cfg, mode).moves == _reference_moves(cfg, mode)


@settings(deadline=None)
@given(repeated_content_configs(), st.data())
def test_moves_carry_caches_as_built_from_scratch(cfg, data):
    # A moved config inherits its parent's bin model, recomputes only the
    # bins a mover leaves or enters and drops their contents.  Moves here
    # are drawn at random, geometry unchecked: single moves (some re-laying
    # the target's residents), coalitions and whole-bin evacuations, into
    # used bins or fresh ids, so source bins empty and new bins appear.
    for _ in range(data.draw(st.integers(1, 6))):
        ids = sorted(cfg.assignment)
        bins = sorted(set(cfg.assignment.values()))
        # the parent's contents are cold, warm or warm in some bins only
        parent = cfg._volumes
        parent.contents.clear()
        warm = data.draw(st.sets(st.sampled_from(bins)))
        for b in warm:
            parent.content(b)
        targets = st.sampled_from(bins + [bins[-1] + 1, bins[-1] + 7])

        def base():
            return tuple(F(data.draw(st.integers(0, 3)), 4) for _ in range(cfg.d))

        kind = data.draw(st.sampled_from(["move", "relayout", "coalition", "evacuate"]))
        if kind in ("move", "relayout"):
            item, target = data.draw(st.sampled_from(ids)), data.draw(targets)
            relayout = None
            if kind == "relayout":
                residents = [i for i in ids if cfg.assignment[i] == target and i != item]
                relayout = tuple((i, base()) for i in sorted(residents + [item]))
            move = MoveProposal(
                item, cfg.assignment[item], target, F(1), F(0), base(),
                relayout,
            )
            moved = apply_move(cfg, move)
            movers = [item] + [i for i, _ in relayout or ()]
        else:
            if kind == "coalition":
                movers = data.draw(
                    st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True)
                )
            else:
                source = data.draw(st.sampled_from(bins))
                movers = [i for i in ids if cfg.assignment[i] == source]
            n = len(movers)
            proposal = CoalitionProposal(
                tuple(movers),
                tuple(data.draw(targets) for _ in movers),
                tuple(base() for _ in movers),
                (F(1),) * n,
                (F(0),) * n,
            )
            moved = apply_coalition(cfg, proposal)
        touched = {cfg.assignment[i] for i in movers}
        touched |= {moved.assignment[i] for i in movers}
        carried = vars(moved)["_volumes"]
        assert set(carried.contents) == warm - touched
        scratch = GameConfig(moved.d, moved.items, moved.assignment, moved.positions)
        for b in scratch._volumes.members:
            carried.content(b)
            scratch._volumes.content(b)
        for field in dataclasses.fields(carried):
            name = field.name
            assert getattr(carried, name) == getattr(scratch._volumes, name), name
        assert moved.bins_map == scratch.bins_map
        cfg = moved


def test_moves_carry_a_base_off_the_unit_of_its_bin():
    # d=1, side 1/4: every content starts on the unit 4, the side 1 over
    # it, an empty bin's too.  Moving item 1 to base 1/3 puts its bin on the
    # unit 12, the side 3; the untouched bin and the empty one keep their
    # contents, and the search reads the moved bin in twelfths.  Moving the
    # item back puts the bin on the unit 4 again, as a fresh model has it.
    quarter = CubeClass(4, 0, 1)
    items = tuple(GameItem(i, quarter) for i in range(3))
    cfg = GameConfig(
        1, items, {0: 0, 1: 0, 2: 1}, {0: (F(0),), 1: (F(1, 4),), 2: (F(0),)}
    )
    parent = cfg._volumes
    empty = parent.content(None)
    assert empty == ((4, (1,), ()), ())
    pairs = ((0, (0,)), (0, (1,)))
    assert parent.content(0) == ((4, (1,), pairs), pairs)
    alone = parent.content(1)
    moved = cfg.with_moves({1: (0, (F(1, 3),))})
    carried = vars(moved)["_volumes"]
    assert carried.contents == {None: empty, 1: alone}
    pairs = ((0, (0,)), (0, (4,)))
    assert carried.content(0) == ((12, (3,), pairs), pairs)
    (move,) = is_nash(moved).moves
    assert (move.item_id, move.target_bin, move.base) == (2, 0, (F(7, 12),))
    scratch = GameConfig(1, items, moved.assignment, moved.positions)
    assert is_nash(scratch).moves == (move,)
    back = moved.with_moves({1: (0, (F(1, 4),))})
    assert back._volumes.content(0) == parent.content(0)
    for name in ("iocc", "members", "census", "contents"):
        assert getattr(back._volumes, name) == getattr(cfg._volumes, name), name


def test_outside_configs_are_checked_and_moves_coerce_their_bases():
    big, small = CubeClass(4, 0, 1), CubeClass(8, 0, 1)
    items = (GameItem(0, big), GameItem(1, small))
    bad = [
        ((GameItem(0, big), GameItem(0, small)), {0: 0}, {0: (F(0),)}),
        ((GameItem(0, CubeClass(4, 0, 2)),), {0: 0}, {0: (F(0), F(0))}),
        (items, {0: 0}, {0: (F(0),), 1: (F(1, 4),)}),
        (items, {0: 0, 1: 0}, {0: (F(0),)}),
    ]
    for its, assignment, positions in bad:
        with pytest.raises(ValueError):
            GameConfig(1, its, assignment, positions)
    with pytest.raises(TypeError):
        GameConfig(1, items, {0: 0, 1: 0}, {0: (0.0,), 1: (F(1, 4),)})
    cfg = two_items_config()
    moved = cfg.with_moves({1: (1, ("0",))})
    assert moved.positions[1] == (F(0),) and type(moved.positions[1][0]) is F
    assert moved.positions[0] is cfg.positions[0]
    assert moved == GameConfig(1, cfg.items, {0: 0, 1: 1}, {0: (F(0),), 1: (F(0),)})
    with pytest.raises(TypeError):
        cfg.with_moves({1: (1, (0.5,))})
    with pytest.raises(ValueError):
        cfg.with_moves({7: (1, (F(0),))})


def test_config_from_bins_skips_the_checks_its_bins_already_passed():
    # config_from_bins builds from verified PlacedCubes, so it neither
    # re-coerces their bases nor copies them: copies of one bin share their
    # base tuples.  The result equals the checked constructor's, and that
    # constructor still refuses a float base.
    grid = build_homogeneous(3, 2, F(1, 9)).bin
    cfg = config_from_bins([grid, grid])
    n = len(grid.cubes)
    for j, cube in enumerate(grid.cubes):
        assert cfg.positions[j] is cfg.positions[n + j] is cube.base
    assert cfg == GameConfig(2, cfg.items, cfg.assignment, cfg.positions)
    floats = {i: tuple(float(x) for x in base) for i, base in cfg.positions.items()}
    with pytest.raises(TypeError):
        GameConfig(2, cfg.items, cfg.assignment, floats)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        is_nash(two_items_config(), "teleport").moves


# ---------------------------------------------------------------------------
# dynamics


def test_dynamics_at_nash_takes_zero_steps():
    cfg = homogeneous_mixture([2, 3], 2, F(1, 9))
    result = best_response_dynamics(cfg, "first")
    assert result.steps == 0
    assert result.status == "nash"
    assert result.config == cfg


def test_dynamics_merges_half_empty_bins():
    cls = CubeClass(3, F(1, 9), 2)
    side = cls.side
    items = tuple(GameItem(i, cls) for i in range(4))
    cfg = GameConfig(
        2,
        items,
        {0: 0, 1: 0, 2: 1, 3: 1},
        {0: (F(0), F(0)), 1: (side, F(0)), 2: (F(0), F(0)), 3: (side, F(0))},
    )
    start_potential = potential(cfg)
    result = best_response_dynamics(cfg, "first")
    assert result.status == "nash"
    assert result.config.social_cost() == 1
    assert result.steps == 2
    assert potential(result.config) > start_potential
    assert result.certificate.is_nash


@pytest.mark.parametrize("policy", ["first", "best", "random"])
def test_dynamics_policies_reach_nash(policy):
    cfg = underfilled_pair()
    result = best_response_dynamics(cfg, policy, seed=7)
    assert result.status == "nash"
    assert is_nash(result.config)


def test_dynamics_policy_aliases():
    cfg = underfilled_pair()
    assert best_response_dynamics(cfg, "first").status == "nash"
    with pytest.raises(ValueError):
        best_response_dynamics(cfg, "greedy")


def test_dynamics_budget_exhaustion_reports_status():
    cfg = underfilled_pair()
    result = best_response_dynamics(cfg, "first", max_steps=0)
    assert result.status == "budget-exhausted"
    assert result.certificate is None
    assert result.config == cfg


def test_dynamics_rejects_unknown_mode_at_zero_budget():
    # the mode is checked before the first step, not by the first step
    with pytest.raises(ValueError, match="teleport"):
        best_response_dynamics(underfilled_pair(), "first", max_steps=0, mode="teleport")


def test_dynamics_rejects_negative_budget():
    with pytest.raises(ValueError, match="max_steps"):
        best_response_dynamics(underfilled_pair(), "first", max_steps=-1)


def _reference_dynamics(cfg, policy, seed, mode, max_steps=None):
    """best_response_dynamics stepped by hand: a fresh is_nash
    call, with its own memo, before every apply_move.  "best" takes the
    first move, in is_nash's order, of the largest cost drop.  The
    run stops after max_steps applied moves, if given."""
    rng = random.Random(seed)
    applied = []
    while max_steps is None or len(applied) < max_steps:
        moves = is_nash(cfg, mode).moves
        if not moves:
            return tuple(applied), cfg
        if policy == "first":
            move = moves[0]
        elif policy == "best":
            top = max(m.cost_before - m.cost_after for m in moves)
            move = next(m for m in moves if m.cost_before - m.cost_after == top)
        else:
            move = rng.choice(moves)
        cfg = apply_move(cfg, move)
        applied.append(move)
    return tuple(applied), cfg


@settings(deadline=None)
@given(repeated_content_configs(), st.integers(0, 2**16))
def test_dynamics_shared_memo_matches_fresh_steps(cfg, seed):
    # One placement memo serves every step of a run; keyed by contents, it
    # must give each step the moves a fresh search gives.
    cfg.validate()
    for mode in ("insertion", "repack"):
        for policy in ("first", "random"):
            try:
                expected = _reference_dynamics(cfg, policy, seed, mode)
            except RepackSearchError:
                with pytest.raises(RepackSearchError):
                    best_response_dynamics(cfg, policy, seed=seed, mode=mode)
                continue
            result = best_response_dynamics(cfg, policy, seed=seed, mode=mode)
            assert result.status == "nash"
            assert (result.applied, result.config) == expected


@settings(deadline=None)
@given(repeated_content_configs(), st.integers(0, 2**16))
def test_dynamics_best_policy_and_budgets_match_fresh_steps(cfg, seed):
    # Dynamics builds a proposal only for the move it applies, so "best"
    # must still pick the first move of largest cost drop, and a budget of
    # n steps must stop after the first n moves of the unbudgeted run.
    cfg.validate()
    for mode in ("insertion", "repack"):
        for policy in ("first", "best", "random"):
            try:
                full = _reference_dynamics(cfg, policy, seed, mode)
            except RepackSearchError:
                continue
            result = best_response_dynamics(cfg, policy, seed=seed, mode=mode)
            assert result.status == "nash"
            assert (result.applied, result.config) == full
            for budget in range(4):
                run = best_response_dynamics(
                    cfg, policy, seed=seed, mode=mode, max_steps=budget
                )
                if budget > len(full[0]):
                    assert (run.status, run.applied) == ("nash", full[0])
                    continue
                assert run.status == "budget-exhausted"
                assert run.certificate is None
                assert run.applied == full[0][:budget]
                expected = _reference_dynamics(cfg, policy, seed, mode, budget)
                assert (run.applied, run.config) == expected


def _start_states(seed, count):
    """Lone d=2 cubes of classes 2..4, each in its own bin."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 10)
        items = tuple(
            GameItem(i, CubeClass(rng.choice((2, 3, 4)), F(1, 9), 2)) for i in range(n)
        )
        yield GameConfig(2, items, {i: i for i in range(n)}, {i: (F(0), F(0)) for i in range(n)})


@pytest.mark.parametrize("policy", ["first", "best", "random"])
def test_dynamics_builds_one_proposal_per_step(monkeypatch, policy):
    built = []

    class Counted(MoveProposal):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    monkeypatch.setattr("cubepack.game.MoveProposal", Counted)
    for trial, cfg in enumerate(_start_states(3, 6)):
        built.clear()
        result = best_response_dynamics(cfg, policy, seed=trial)
        assert result.status == "nash" and result.steps > 0
        assert built == list(result.applied)


def test_dynamics_counts_placement_searches_over_the_run(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _joint_corners(*args, **kwargs)

    monkeypatch.setattr("cubepack.game._joint_corners", counted)
    for trial, cfg in enumerate(_start_states(5, 6)):
        calls.clear()
        result = best_response_dynamics(cfg, "random", seed=trial)
        assert result.geometry_checks == len(calls) > 0
        # the certificate counts the final round only
        assert 0 <= result.certificate.geometry_checks <= result.geometry_checks
        # a field on the result, not state kept between runs
        again = best_response_dynamics(cfg, "random", seed=trial)
        assert again.geometry_checks == result.geometry_checks
        calls.clear()
        budgeted = best_response_dynamics(cfg, "random", seed=trial, max_steps=1)
        assert budgeted.geometry_checks == len(calls)


def _policy_choice(cfg, mode, policy, pool, rng):
    """The move best_response_dynamics applies from the listed pool."""
    if not pool:
        return None
    if policy == "random":
        return rng.choice(pool)
    if policy == "first":
        return pool[0]
    drops = [(p.cost_before - p.cost_after, -p.item_id) for p in
             (_proposal(cfg, mode, *c) for c in pool)]
    return pool[drops.index(max(drops))]


def _check_carried_run(cfg, mode, policy, seed, listed):
    """Step a carried screen as best_response_dynamics does, and check every
    step against a screen built fresh for that step's config: the policy
    picks the same move, the steps in `listed` walk the same whole move
    sequence (item, source, target and fit), and where the
    fresh walk raises RepackSearchError the carried one raises it too."""
    carried_rng, fresh_rng = random.Random(seed), random.Random(seed)
    screen = _MoveScreen(cfg, mode)
    for step in itertools.count():
        fresh = _MoveScreen(cfg, mode)
        walk = fresh.moves()
        try:
            pool = [next(walk)] if policy == "first" else list(walk)
        except StopIteration:
            pool = []
        except RepackSearchError as exc:
            with pytest.raises(RepackSearchError) as raised:
                screen.pick(policy, carried_rng)
            assert str(raised.value) == str(exc)
            return
        chosen = screen.pick(policy, carried_rng)
        assert chosen == _policy_choice(cfg, mode, policy, pool, fresh_rng), step
        if step in listed:
            try:
                whole = list(fresh.moves())
            except RepackSearchError as exc:
                with pytest.raises(RepackSearchError) as raised:
                    list(screen.moves())
                assert str(raised.value) == str(exc)
                return
            assert list(screen.moves()) == whole, step
        if chosen is None:
            return
        move = _proposal(cfg, mode, *chosen)
        cfg = apply_move(cfg, move)
        screen.moved(cfg, {move.source_bin, move.target_bin})


@settings(deadline=None, max_examples=50)
@given(
    st.one_of(
        repeated_content_configs(),
        st.integers(0, 2**16).map(lambda seed: next(_start_states(seed, 1))),
    ),
    st.integers(0, 2**16),
    st.sets(st.integers(0, 12)),
)
def test_carried_screen_matches_a_fresh_screen_at_every_step(cfg, seed, listed):
    # The screen carried from step to step re-tests only the bins a move
    # touched.  At every step it must offer what a screen built from scratch
    # offers.  Walking the whole sequence only at some steps leaves the
    # other steps' entries unprobed, as the policies leave them.
    cfg.validate()
    for mode in ("insertion", "repack"):
        for policy in ("first", "best", "random"):
            _check_carried_run(cfg, mode, policy, seed, listed)


# Placement searches of each run on _start_states(3, 6), run i with seed i,
# when every step re-screened from scratch and no capacity screen ran.
SEARCHES_BEFORE_THE_CARRIED_SCREEN = {
    ("first", "insertion"): [5, 11, 17, 13, 23, 10],
    ("best", "insertion"): [12, 20, 24, 19, 24, 14],
    ("random", "insertion"): [15, 21, 23, 33, 38, 27],
    ("first", "repack"): [5, 11, 17, 12, 16, 9],
    ("best", "repack"): [9, 16, 17, 16, 18, 12],
    ("random", "repack"): [10, 18, 18, 21, 27, 19],
}


def test_carried_screen_searches_no_more_than_a_fresh_screen_per_step(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _joint_corners(*args, **kwargs)

    monkeypatch.setattr("cubepack.game._joint_corners", counted)
    for (policy, mode), before in SEARCHES_BEFORE_THE_CARRIED_SCREEN.items():
        for trial, (cfg, bound) in enumerate(zip(_start_states(3, 6), before)):
            calls.clear()
            result = best_response_dynamics(cfg, policy, seed=trial, mode=mode)
            assert result.geometry_checks == len(calls) <= bound, (policy, mode, trial)


@pytest.mark.parametrize("mode", ["insertion", "repack"])
@pytest.mark.parametrize("policy", ["first", "best", "random"])
def test_carried_screen_probes_a_fit_again_only_after_a_touch(monkeypatch, policy, mode):
    # Step k starts after the k-th move.  The fit of a class in a target,
    # which costs a content and a memo probe, is worked out again only after
    # a move touched the target, and an entry whose fit is known when its
    # step starts is never probed: a probe that finds the fit known finds
    # one worked out earlier in its own step.
    probes, touched_at = [], []
    probe, moved = _MoveScreen._probe, _MoveScreen.moved

    def logged_probe(self, entries, c, t):
        probes.append((len(touched_at) - 1, c, t, c in self.fits[t]))
        return probe(self, entries, c, t)

    def logged_moved(self, config, touched):
        touched_at.append(set(touched))
        moved(self, config, touched)

    monkeypatch.setattr(_MoveScreen, "_probe", logged_probe)
    monkeypatch.setattr(_MoveScreen, "moved", logged_moved)
    for trial, cfg in enumerate(_start_states(11, 8)):
        probes.clear(), touched_at.clear()
        try:
            best_response_dynamics(cfg, policy, seed=trial, mode=mode)
        except RepackSearchError:
            pass
        assert probes and len(touched_at) > 1
        last_fit = {}
        for step, c, t, cached in probes:
            if cached:
                assert last_fit[t, c] == step, (trial, step, c, t)
                continue
            if (t, c) in last_fit:
                assert any(
                    t in touched_at[k] for k in range(last_fit[t, c] + 1, step + 1)
                ), (trial, step, c, t)
            last_fit[t, c] = step


def _steps_of_a_run(cfg, policy, seed, mode):
    """(config, bins touched) per step of best_response_dynamics, as its
    move screen is told of them; a run that raises RepackSearchError ends
    where it raised."""
    steps, moved = [], _MoveScreen.moved

    def logged(self, config, touched):
        steps.append((config, set(touched)))
        moved(self, config, touched)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_MoveScreen, "moved", logged)
        try:
            best_response_dynamics(cfg, policy, seed=seed, mode=mode)
        except RepackSearchError:
            pass
    return steps[1:]  # the first is the screen's set-up


@settings(deadline=None, max_examples=50)
@given(
    st.one_of(
        repeated_content_configs(),
        st.integers(0, 2**16).map(lambda seed: next(_start_states(seed, 1))),
    ),
    st.integers(0, 2**16),
)
def test_carried_contents_equal_fresh_builds_after_every_move(cfg, seed):
    # A dynamics step derives the contents of the two bins its move touches
    # from their old ones, in ints, instead of scaling them again: after
    # every move, each content the model holds must equal the one a fresh
    # model builds from the bins' Fractions, and the target's is carried.
    cfg.validate()
    for mode in ("insertion", "repack"):
        for policy in ("first", "best", "random"):
            for config, touched in _steps_of_a_run(cfg, policy, seed, mode):
                model = config._volumes
                assert touched & set(model.contents)
                fresh = GameConfig(config.d, config.items, config.assignment,
                                   config.positions)._volumes
                for b, content in model.contents.items():
                    assert content == fresh.content(b), (mode, policy, b)


def test_carried_source_content_drops_to_a_coarser_unit():
    # d=1: bin 0 holds quarter cubes at 1/3 and 0, on the unit 12; bin 1
    # holds three quarters and bin 2 a half.  The half's probe into bin 0
    # builds that content and finds no room, and the best move takes item
    # 0, whose base is the bin's only coordinate in thirds, into bin 1.  So
    # the content carried for bin 0 is divided by 3, onto the unit 4, as a
    # fresh build has it.
    half, quarter = CubeClass(2, 0, 1), CubeClass(4, 0, 1)
    items = tuple(GameItem(i, quarter) for i in range(5)) + (GameItem(5, half),)
    bases = [F(1, 3), 0, 0, F(1, 4), F(1, 2), 0]
    cfg = GameConfig(1, items, {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 2},
                     {i: (F(x),) for i, x in enumerate(bases)})
    (first, touched), *_ = _steps_of_a_run(cfg, "best", 0, "insertion")
    assert touched == {0, 1} and first.assignment[0] == 1
    assert cfg._volumes.contents[0][0][0] == 12
    alone = (1, (0,))
    assert first._volumes.contents[0] == ((4, (2, 1), (alone,)), (alone,))
    fresh = GameConfig(1, items, first.assignment, first.positions)._volumes
    assert fresh.content(0) == first._volumes.contents[0]


@settings(deadline=None)
@given(
    st.one_of(
        repeated_content_configs(),
        st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=3, unique=True).map(
            lambda ks: homogeneous_mixture(ks, 2, F(1, 9))
        ),
    )
)
def test_capacity_screen_skips_only_placements_the_search_rejects(cfg):
    # A bin that holds capacity[c] class-c cubes takes no further class-c
    # cube, kept in place or re-laid, so the screen skips the search: the
    # search itself must reject every such (content, class).
    m = cfg._volumes
    for t in m.iocc:
        for c, cap in enumerate(m.capacity):
            if m.census[t][c] < cap:
                continue
            assert _place(cfg, m.content(t)[0], (c,)) is None
            residents = sorted([m.cid[r] for r in m.members[t]] + [c])
            if len(residents) <= 5:
                assert _place(cfg, m.content(None)[0], tuple(residents)) is None


# ---------------------------------------------------------------------------
# strong Nash


def test_strong_nash_cap_one_matches_is_nash():
    for cfg in (homogeneous_mixture([2, 3], 2, F(1, 9)), underfilled_pair()):
        single = is_strong_nash(cfg, 1)
        assert single.is_strong_nash == is_nash(cfg).is_nash


def test_power_of_two_mixture_is_strong_nash():
    cfg = homogeneous_mixture([2, 4], 2, F(1, 16))
    result = is_strong_nash(cfg, 3)
    assert result
    assert result.violation is None
    assert result.coalitions_checked > 0


def test_non_power_mixture_falls_to_a_pair_coalition():
    # Nash for single moves by the grid cost inequality, yet two class-3
    # cubes can jointly join the class-2 bin: occupancy rises from 400/729
    # to 225/729 + 200/729 = 425/729, improving both from 1/4 to 4/17
    cfg = homogeneous_mixture([2, 3], 2, F(1, 9))
    assert is_nash(cfg)
    result = is_strong_nash(cfg, 2)
    assert not result
    coalition = result.violation
    assert len(coalition.members) == 2
    assert set(coalition.targets) == {0}
    assert coalition.costs_before == (F(1, 4), F(1, 4))
    assert coalition.costs_after == (F(4, 17), F(4, 17))
    deviated = apply_coalition(cfg, coalition)
    deviated.validate()
    for member, after in zip(coalition.members, coalition.costs_after):
        assert deviated.item_cost(member) == after


def test_coalition_found_when_two_singletons_can_merge():
    # two lone quarter-cubes at d=1 in separate bins: the pair moving into a
    # joint fresh bin is NOT improving (costs stay 1/2 < 1... they improve!)
    quarter = CubeClass(4, 0, 1)
    items = (GameItem(0, quarter), GameItem(1, quarter))
    cfg = GameConfig(1, items, {0: 0, 1: 1}, {0: (F(0),), 1: (F(0),)})
    nash = is_nash(cfg)
    assert nash.is_nash is False  # item 0 can simply join bin 1
    result = is_strong_nash(cfg, 2)
    assert not result
    coalition = result.violation
    assert coalition is not None
    deviated = apply_coalition(cfg, coalition)
    deviated.validate()
    for member, before, after in zip(
        coalition.members, coalition.costs_before, coalition.costs_after
    ):
        assert after < before
        assert deviated.item_cost(member) == after


def test_strong_nash_assignment_cap(monkeypatch):
    # six lone cubes of sides 3/4, 2/3, 5/8, 3/5, 7/12 and 4/7: every join
    # passes the gain test but no two fit together, so the search enumerates
    # every pairing fruitlessly.  The six bins hold pairwise distinct
    # contents, so no coalition shares an orbit with another.
    items = tuple(GameItem(i, CubeClass(2, F(1, i + 2), 1)) for i in range(6))
    cfg = GameConfig(
        1, items, {i: i for i in range(6)}, {i: (F(0),) for i in range(6)}
    )
    monkeypatch.setattr("cubepack.game.COALITION_ASSIGNMENT_CAP", 10)
    with pytest.raises(CoalitionSearchError):
        is_strong_nash(cfg, 3)


def _reference_strong_nash(cfg, cap, lattice):
    """Unpruned oracle: the first coalition, smallest first and then in
    item order, of at most cap members that can each be sent to another
    used bin or to a fresh one, fitting on the 1/L lattice with every
    member's Fraction cost strictly lower; None if there is none."""
    items = sorted(cfg.items, key=lambda it: it.item_id)
    used = sorted(cfg.bins_map)
    units = {
        it.item_id: (
            tuple(int(x * lattice) for x in cfg.positions[it.item_id]),
            int(it.cls.side * lattice),
        )
        for it in items
    }
    for size in range(1, cap + 1):
        fresh = [max(used) + 1 + slot for slot in range(size)]
        for coalition in itertools.combinations(items, size):
            ids = [it.item_id for it in coalition]
            for targets in itertools.product(used + fresh, repeat=size):
                if any(cfg.assignment[i] == t for i, t in zip(ids, targets)):
                    continue
                occ = {t: cfg.occupied(t) if t in used else F(0) for t in targets}
                for it in coalition:
                    if cfg.assignment[it.item_id] in occ:
                        occ[cfg.assignment[it.item_id]] -= it.cls.volume
                for it, t in zip(coalition, targets):
                    occ[t] += it.cls.volume
                if not all(
                    it.cls.volume / occ[t] < cfg.item_cost(it.item_id)
                    for it, t in zip(coalition, targets)
                ):
                    continue
                if all(
                    _lattice_joint_oracle(
                        [
                            units[it.item_id]
                            for it in items
                            if cfg.assignment[it.item_id] == t and it.item_id not in ids
                        ],
                        [units[i][1] for i, tt in zip(ids, targets) if tt == t],
                        lattice,
                        cfg.d,
                    )
                    for t in set(targets)
                ):
                    return tuple(ids)
    return None


def _lattice_bins_config(d, lattice, specs):
    """Bin b is filled run by run: each (q, count, k_extra) in specs[b]
    adds up to count cubes of lattice side q, each at its least free
    corner.  At most 6 items."""
    items, assignment, positions = [], {}, {}
    for b, runs in enumerate(specs):
        cubes = []
        for q, count, k_extra in runs:
            cls = _lattice_class(k_extra, q, lattice, d)
            for _ in range(count):
                base = find_free_position(cubes, cls.side, d)
                if base is None or len(items) == 6:
                    break
                cubes.append(PlacedCube(cls, base))
                item_id = len(items)
                items.append(GameItem(item_id, cls))
                assignment[item_id] = b
                positions[item_id] = base
    return GameConfig(d, tuple(items), assignment, positions)


@st.composite
def small_lattice_configs(draw):
    """At most 6 items with sides on the 1/L lattice, in 2 or 3 bins.

    Bin 0 holds one or two cubes of a drawn side; each later bin is filled
    with cubes of one smaller drawn side, each at its least free corner.
    Under that layout a few large cubes often sit in an emptier bin than
    many small ones, so coalitions of two or three can gain where single
    moves cannot.
    """
    d = draw(st.integers(1, 2))
    lattice = draw(st.integers(3, 8 if d == 1 else 4))
    specs = [(draw(st.integers(2, lattice)), draw(st.integers(1, 2)))]
    specs += [(draw(st.integers(1, lattice - 1)), 6)] * draw(st.integers(1, 2))
    specs = [[(q, count, draw(st.integers(0, 1)))] for q, count in specs]
    return _lattice_bins_config(d, lattice, specs), draw(st.integers(2, 3)), lattice


@st.composite
def repeated_lattice_configs(draw):
    """At most 6 items on the 1/L lattice in 2 to 4 bins, each bin a copy
    of one of two drawn contents, so a coalition orbit under permutations
    of equal bins has several members.

    A content is one to three cubes of a drawn side, then up to two of
    another, each at its least free corner as in small_lattice_configs, so
    slots of one bin may hold different classes.
    """
    d = draw(st.integers(1, 2))
    lattice = draw(st.integers(3, 8 if d == 1 else 4))
    runs = st.tuples(st.integers(1, lattice), st.integers(1, 3), st.integers(0, 1))
    contents = [
        [draw(runs), draw(runs.filter(lambda run: run[1] <= 2))] for _ in range(2)
    ]
    specs = draw(st.lists(st.sampled_from(contents), min_size=2, max_size=4))
    return _lattice_bins_config(d, lattice, specs), draw(st.integers(2, 3)), lattice


def _check_strong_nash_case(case):
    # verdict and first violating coalition as the unpruned oracle finds
    # them; the reported deviation is valid and every member gains
    cfg, cap, lattice = case
    cfg.validate()
    result = is_strong_nash(cfg, cap)
    first = _reference_strong_nash(cfg, cap, lattice)
    assert result.is_strong_nash == (first is None)
    if result:
        return
    coalition = result.violation
    assert coalition.members == first
    deviated = apply_coalition(cfg, coalition)
    deviated.validate()
    for member, before, after in zip(
        coalition.members, coalition.costs_before, coalition.costs_after
    ):
        assert before == cfg.item_cost(member)
        assert after == deviated.item_cost(member)
        assert after < before


@settings(deadline=None)
@given(small_lattice_configs())
def test_strong_nash_matches_unpruned_oracle(case):
    _check_strong_nash_case(case)


@settings(deadline=None)
@given(repeated_lattice_configs())
def test_strong_nash_on_repeated_bins_matches_unpruned_oracle(case):
    _check_strong_nash_case(case)


@st.composite
def relabelled_lattice_configs(draw):
    """repeated_lattice_configs with its bins renumbered to distinct ids
    drawn from 7 to 13, so targets order bin 9 against bin 10, fresh bins
    get ids of 10 and more, and bin order no longer follows item order.
    Yields the config it was drawn from, then the relabelled case."""
    cfg, cap, lattice = draw(repeated_lattice_configs())
    bins = sorted(set(cfg.assignment.values()))
    ids = draw(st.lists(st.integers(7, 13), min_size=len(bins), max_size=len(bins),
                        unique=True))
    assignment = {i: ids[bins.index(b)] for i, b in cfg.assignment.items()}
    return cfg, (GameConfig(cfg.d, cfg.items, assignment, cfg.positions), cap, lattice)


@settings(deadline=None)
@given(relabelled_lattice_configs())
def test_strong_nash_on_relabelled_bins_matches_unpruned_oracle(drawn):
    original, case = drawn
    _check_strong_nash_case(case)
    # fresh bins are taken in order whatever the used ids, so a full search
    # counts the same coalitions and assignments under any bin labels
    relabelled, cap, _ = case
    result = is_strong_nash(relabelled, cap)
    if result:
        base = is_strong_nash(original, cap)
        assert result.coalitions_checked == base.coalitions_checked
        assert result.assignments_checked == base.assignments_checked


@st.composite
def dominant_bin_configs(draw):
    """Four cubes of a drawn lattice side q in bin 0, and one cube of a side
    at most q in each of one or two more bins.  With a cap of 2 or 3, bin 0
    is then at least as full as any other bin plus the cap's largest
    volumes, so the coalition screen drops its items, while the lone cubes
    may still gain by joining it or each other."""
    d = draw(st.integers(1, 2))
    lattice = draw(st.integers(4, 8 if d == 1 else 5))
    q = draw(st.integers(1, lattice // (4 if d == 1 else 2)))
    specs = [[(q, 4, draw(st.integers(0, 1)))]]
    for _ in range(draw(st.integers(1, 2))):
        specs.append([(draw(st.integers(1, q)), 1, draw(st.integers(0, 1)))])
    return _lattice_bins_config(d, lattice, specs), draw(st.integers(2, 3)), lattice


@settings(deadline=None)
@given(dominant_bin_configs())
def test_strong_nash_with_a_dominant_bin_matches_unpruned_oracle(case):
    cfg, cap, _ = case
    largest = sorted((it.cls.volume for it in cfg.items), reverse=True)[:cap]
    others = max(cfg.occupied(b) for b in cfg.bins_map if b != 0)
    assert cfg.occupied(0) >= others + sum(largest)
    _check_strong_nash_case(case)


def _check_orbit_levels(cfg, cap):
    # The levels of _Orbits, every pattern allowed, are the first
    # coalition of each orbit key in a plain walk over every combination,
    # in that walk's order.  Labelled by class, it gives one coalition per
    # type pattern of the combinations, and every coalition of one pattern
    # reaches as many complete gaining assignments.
    m = cfg._volumes
    bins = sorted(m.iocc)
    orbits = _Orbits(m, bins)
    types = [rep for level in _Orbits(m, bins, by_class=True).levels(cap) for rep in level]
    patterns = {pattern for _, pattern in types}
    assert len(patterns) == len(types)
    levels = list(orbits.levels(cap, patterns))
    walked, assignments = set(), {}
    for size in range(1, cap + 1):
        firsts = {}
        for coalition in itertools.combinations(sorted(cfg.assignment), size):
            pattern, key = orbits.signature(coalition)
            firsts.setdefault(key, (coalition, pattern))
            walked.add(pattern)
            gaining = _gaining_assignments(m, cfg.assignment, bins, bins[-1] + 1, coalition)
            count = sum(1 for _ in gaining)
            assert assignments.setdefault(pattern, count) == count
        expected = list(firsts.values())
        got = levels[size - 1] if size <= len(levels) else []
        assert got == expected, size
    assert patterns == walked


@settings(deadline=None)
@given(repeated_lattice_configs())
def test_orbit_levels_match_a_combinations_walk_on_lattice_bins(case):
    cfg, cap, _ = case
    _check_orbit_levels(cfg, cap)


@settings(deadline=None)
@given(repeated_content_configs())
def test_orbit_levels_match_a_combinations_walk_on_repeated_contents(cfg):
    _check_orbit_levels(cfg, 2)


@settings(deadline=None)
@given(repeated_content_configs(), st.integers(1, 3))
def test_coalition_costs_after_match_the_moved_config(cfg, cap):
    # is_strong_nash reads each member's cost after the move off the integer
    # volumes, without building the moved config; the moved config is the
    # oracle.  Violations are applied one after another until none is
    # left, so later ones start from moved configs with fresh bins in use.
    cfg.validate()
    for _ in range(10):
        result = is_strong_nash(cfg, cap)
        if result:
            return
        proposal = result.violation
        moved = apply_coalition(cfg, proposal)
        moved.validate()
        assert proposal.costs_before == tuple(cfg.item_cost(i) for i in proposal.members)
        assert proposal.costs_after == tuple(
            moved.item_cost(i) for i in proposal.members
        )
        cfg = moved


def test_strong_nash_toy_work_counters():
    # P' of the d=2 (2,4) SPoA toy at coalition cap 3; counts work, not
    # time.  Its 12 bins hold two contents, so 7,806 coalitions fall into
    # 765 orbits.  Only 3 of them have a type pattern that the branch and
    # bound lets gain, and only those are searched (coalitions_checked read
    # 765 while every orbit was searched); their 59 complete assignments
    # ask 5 distinct (residents kept, incoming classes) placement questions.
    inst = spoa_instance(power_of_two_toy_packing(), copies_cap=16, certify=False)
    result = is_strong_nash(inst.p_prime, 3)
    assert result
    assert result.coalitions_checked == 3
    assert result.assignments_checked == 59
    assert result.geometry_checks == 5


def test_strong_nash_screen_keeps_a_bin_only_a_full_coalition_lifts():
    # d=1, sides 2/7: bin 0 holds cubes at [1/7, 3/7] and [4/7, 6/7], so no
    # third fits, and bin 1 one at [0, 2/7].  No single move gains, but both
    # cubes of bin 0 joining bin 1 lift it from 2/7 to 6/7, above their 4/7.
    # Bin 0 passes the screen only because V counts both volumes:
    # 2/7 + 4/7 > 4/7.
    cls = _lattice_class(0, 2, 7, 1)
    items = tuple(GameItem(i, cls) for i in range(3))
    cfg = GameConfig(
        1, items, {0: 0, 1: 0, 2: 1}, {0: (F(1, 7),), 1: (F(4, 7),), 2: (F(0),)}
    )
    assert is_nash(cfg)
    result = is_strong_nash(cfg, 2)
    assert not result
    assert (result.violation.members, result.violation.targets) == ((0, 1), (1, 1))
    assert _reference_strong_nash(cfg, 2, 7) == (0, 1)


@pytest.mark.parametrize("d, items", [(4, 84), (5, 246)])
def test_strong_nash_screen_on_the_reproduced_equilibrium(d, items):
    # P' of reproduce's SPoA stage: three one-cube class-2 bins and one full
    # class-4 grid.  No class-4 cube can end in a bin fuller than its grid,
    # so only the three class-2 cubes are enumerated, one orbit per size.
    inst = spoa_instance(reproduce_spoa_packing(d), copies_cap=16, certify=False)
    assert len(inst.p_prime.items) == items
    t0 = time.perf_counter()
    result = is_strong_nash(inst.p_prime, 3)
    elapsed = time.perf_counter() - t0
    assert result
    assert result.coalitions_checked == 3
    assert result.assignments_checked == 11
    assert elapsed < 0.5


def test_is_nash_on_the_d7_regrouped_equilibrium_reads_types(monkeypatch):
    # P' of reproduce's PoA stage at d=7: 64 full class-3 grids and 128
    # one-cube class-2 bins, 8,320 items.  A placement is asked for at
    # most once per (target content, class): 2 contents times 2 classes,
    # and three of those are asked.  Two are a cube into a bin that holds
    # its class's capacity already, answered without a search, so one
    # search runs.  A walk over (item, target) pairs asked 540,564 times here.
    inst = poa_instance(_warmup_slice(7, (2, 3), F(1, 9)), certify=False)
    cfg = inst.p_prime
    assert len(cfg.items) == 8320
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return _place(*args, **kwargs)

    monkeypatch.setattr("cubepack.game._place", counted)
    t0 = time.process_time()
    result = is_nash(cfg)
    elapsed = time.process_time() - t0
    assert result
    assert result.geometry_checks == 1
    m = cfg._volumes
    pairs = {(m.content(t), c) for t in m.iocc for c in set(m.cid.values())}
    assert len(pairs) == 4
    assert len(calls) == len(set(calls)) == 1 <= len(pairs)
    assert elapsed < 0.5


def test_strong_nash_on_equal_grids_reads_types():
    # 4 copies of the full d=3 class-4 grid and 8 one-cube class-2 bins at
    # epsilon 1/16, cap 3: 116 items and about 260,000 combinations in
    # 17,598 orbits.  Only the orbits of gaining type patterns are
    # searched: 3 of them, with 110 complete assignments and 5 searches.
    grids = [build_homogeneous(4, 3, F(1, 16)).bin] * 4
    grids += [build_homogeneous(2, 3, F(1, 16)).bin] * 8
    cfg = config_from_bins(grids)
    t0 = time.process_time()
    result = is_strong_nash(cfg, 3)
    elapsed = time.process_time() - t0
    assert result
    assert result.coalitions_checked == 3
    assert result.assignments_checked == 110
    assert result.geometry_checks == 5
    assert elapsed < 0.5


# ---------------------------------------------------------------------------
# grid cost inequality


def test_prop1_frozen_example():
    assert prop1_check(2, 3, 2)
    # 1/4 + 1/9 = 13/36 < 16/36
    lhs = F(1, 4) + F(1, 9)
    rhs = F(4, 9)
    assert lhs < rhs


def test_prop1_preconditions():
    with pytest.raises(ValueError):
        prop1_check(2, 2, 2)
    with pytest.raises(ValueError):
        prop1_check(1, 3, 2)
    with pytest.raises(ValueError):
        prop1_check(2, 3, 1)


def test_prop1_sweep_small():
    checked, failures = prop1_sweep(k_max=12, d_max=6)
    assert failures == ()
    assert checked == sum(1 for k in range(2, 12) for _ in range(k + 1, 13)) * 5


# ---------------------------------------------------------------------------
# anarchy instances


def test_poa_instance_remark_values():
    inst = poa_instance(remark_packing())
    assert inst.copies == 8
    assert inst.p.social_cost() == 8
    assert inst.p_prime.social_cost() == 12
    assert inst.ratio == F(3, 2)
    assert inst.ratio == remark_packing().weight()
    assert not inst.scaled
    assert inst.nash.is_nash
    for cfg in (inst.p, inst.p_prime):
        for b in cfg.bins_map.values():
            assert verify_bin(b)
    # same multiset of cubes on both sides
    classes = sorted(it.cls.k for it in inst.p.items)
    assert classes == sorted(it.cls.k for it in inst.p_prime.items)


def test_poa_epsilon_precondition():
    pack = build_packing(warmup_family(2), F(1, 4))
    # k_max = 2 so the bound is 1/(2-1) = 1; force a violation artificially
    assert pack.epsilon <= 1
    # every packing's classes demand 0 < eps < 1/(k-1), and the k_max grid
    # of P' refuses an epsilon past 1/(k_max-1) = 1/2 all the same
    for eps in (F(3, 5), F(3, 4)):
        big = build_packing(warmup_family(3), F(1, 9))
        object.__setattr__(big, "epsilon", eps)
        with pytest.raises(ValueError, match=r"epsilon <= 1/2"):
            poa_instance(big)


def test_poa_rejects_an_invalid_packing_bin():
    # P copies the packing's bin, so one overlap there is checked once
    pack = remark_packing()
    overlapping = Bin(pack.d, pack.bin.cubes + pack.bin.cubes[:1])
    with pytest.raises(ValueError, match="invalid"):
        poa_instance(dataclasses.replace(pack, bin=overlapping))


def test_poa_scaled_copies():
    pack = remark_packing()
    inst = poa_instance(pack, copies_cap=4, certify=False)
    assert inst.scaled
    # minimal regroupable count: lcm(1, 8/gcd(4,8)) = 2
    assert inst.copies == 2
    assert inst.ratio == F(3, 2)
    with pytest.raises(ValueError):
        poa_instance(pack, copies_cap=1)


def test_spoa_toy_values():
    inst = spoa_instance(power_of_two_toy_packing(), coalition_cap=2)
    assert inst.copies == 9
    assert inst.p.social_cost() == 9
    assert inst.p_prime.social_cost() == 12
    assert inst.ratio == F(4, 3)
    assert inst.nash.is_nash
    assert inst.strong.is_strong_nash


def test_spoa_rejects_non_power_classes():
    with pytest.raises(ValueError):
        spoa_instance(remark_packing())


# ---------------------------------------------------------------------------
# Meir-Moser predicate and sparse bins


def test_meir_moser_boundary():
    assert meir_moser_predicate([F(1, 4), F(1, 4)], F(1, 2), 2)
    assert not meir_moser_predicate([F(1, 4), F(1, 4), F(1, 1000)], F(1, 2), 2)
    assert meir_moser_predicate([F(1, 2), F(1, 2)], 1, 2)
    assert not meir_moser_predicate([F(1, 2), F(1, 2), F(1, 1000)], 1, 2)
    with pytest.raises(ValueError):
        meir_moser_predicate([F(1, 4)], F(3, 2), 2)


def test_sparse_bin_report_single_tiny_item():
    cls = CubeClass(8, 0, 2)  # volume 1/64 < 1/4
    cfg = GameConfig(2, (GameItem(0, cls),), {0: 0}, {0: (F(0), F(0))})
    report = sparse_bin_report(cfg, nash_result=is_nash(cfg))
    assert report.sparse_bins == (0,)
    assert report.conditioned
    assert report.sparse_count_ok
    assert report.bin_bound_ok


def test_sparse_bin_report_mixture_has_none():
    cfg = homogeneous_mixture([2, 3], 2, F(1, 9))
    report = sparse_bin_report(cfg, nash_result=is_nash(cfg))
    # H_2 occupancy 25/81, H_3 occupancy 400/729: both above 1/4
    assert cfg.occupied(0) == F(25, 81)
    assert cfg.occupied(1) == F(400, 729)
    assert report.sparse_bins == ()
    assert report.sparse_count_ok


def test_sparse_bin_report_refuses_a_certificate_of_another_config():
    # two lone class-4 cubes in bins 0 and 1 are not Nash: another
    # config's certificate must not condition their report
    cls = CubeClass(4, 0, 2)
    cfg = GameConfig(2, (GameItem(0, cls), GameItem(1, cls)), {0: 0, 1: 1},
                     {0: (F(0), F(0)), 1: (F(0), F(0))})
    assert not is_nash(cfg)
    with pytest.raises(ValueError, match="another config"):
        sparse_bin_report(cfg, nash_result=is_nash(homogeneous_mixture([2, 3], 2, F(1, 9))))
    # a dynamics endpoint's own certificate still conditions its report
    result = best_response_dynamics(cfg)
    report = sparse_bin_report(result.config, nash_result=result.certificate)
    assert report.conditioned and report.sparse_count_ok


def test_sparse_bin_report_unconditioned():
    cfg = underfilled_pair()
    report = sparse_bin_report(cfg)
    assert not report.conditioned
    assert report.sparse_count_ok is None


def test_dynamics_endpoints_sparse_audit():
    rng = random.Random(1)
    for trial in range(10):
        classes = [rng.choice([2, 3, 4]) for _ in range(rng.randint(2, 6))]
        items = tuple(
            GameItem(i, CubeClass(k, F(1, 9), 2)) for i, k in enumerate(classes)
        )
        cfg = GameConfig(
            2,
            items,
            {i: i for i in range(len(items))},
            {i: (F(0), F(0)) for i in range(len(items))},
        )
        result = best_response_dynamics(cfg, "random", seed=trial)
        assert result.status == "nash"
        report = sparse_bin_report(result.config, nash_result=result.certificate)
        assert report.sparse_count_ok, (trial, classes)


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_strong_nash_screen_keeps_a_source_below_the_two_fullest_bins(cap):
    # d=1, all three bins at 4/5: bins 0 and 1 hold two cubes of side 2/5,
    # bin 2 four of side 1/5.  Bin 2 is not among the two fullest bins, so
    # the source screen must compare it against them: its item 4 gains
    # alone by moving into bin 0's free fifth.
    big, small = CubeClass(5, 1, 1), CubeClass(10, 1, 1)
    classes = [big] * 4 + [small] * 4
    items = tuple(GameItem(i, cls) for i, cls in enumerate(classes))
    bases = [0, F(2, 5)] * 2 + [F(j, 5) for j in range(4)]
    cfg = GameConfig(1, items, {i: min(i // 2, 2) for i in range(8)},
                     {i: (F(x),) for i, x in enumerate(bases)})
    _check_strong_nash_case((cfg, cap, 10))
    assert is_strong_nash(cfg, cap).violation.members == (4,)


# -- argument refusals ---------------------------------------------------------


def _two_items_with(assignment=(), positions=()):
    """two_items_config's constructor call with some entries added or
    replaced."""
    cfg = two_items_config()
    return GameConfig(1, cfg.items, {**cfg.assignment, **dict(assignment)},
                      {**cfg.positions, **dict(positions)})


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: config_from_bins([]), ValueError, "need at least one bin"),
        (lambda: config_from_bins([Bin(1), Bin(2)]), ValueError,
         "mixed dimensions across bins"),
        (lambda: homogeneous_mixture((2, 2), 2, F(1, 4)), ValueError,
         "classes must be distinct"),
        (lambda: CoalitionProposal((0,), (1,), ((F(0),),), (F(1, 2),), (F(1, 2),)),
         ValueError, "every coalition member must strictly improve"),
        (lambda: CoalitionProposal((0, 1), (1,), (), (F(1),), ()), ValueError,
         "one target, base and pair of costs per member"),
        (lambda: is_strong_nash(two_items_config(), 0), ValueError,
         "coalition size cap must be >= 1"),
        (lambda: meir_moser_predicate([], F(1, 2), 0), ValueError, "d must be >= 1, got 0"),
        (lambda: meir_moser_predicate([F(-1)], F(1, 2), 1), ValueError,
         "volumes must be nonnegative"),
        (lambda: _two_items_with(assignment={99: 0}), ValueError,
         "a bin or position names no item: 99"),
        (lambda: _two_items_with(positions={99: (F(0),)}), ValueError,
         "a bin or position names no item: 99"),
        (lambda: _two_items_with(assignment={0: True, 1: 1}), TypeError,
         "expected int, got bool"),
        (lambda: _two_items_with(assignment={0: 0.0}), TypeError,
         "expected int, got float"),
        (lambda: two_items_config().with_moves({1: (True, (F(1, 2),))}), TypeError,
         "expected int, got bool"),
        (lambda: two_items_config().with_moves({1: ("1", (F(1, 2),))}), TypeError,
         "expected int, got str"),
        (lambda: best_response_dynamics(underfilled_pair(), max_steps=True), TypeError,
         "expected int, got bool"),
        (lambda: best_response_dynamics(underfilled_pair(), max_steps=2.5), TypeError,
         "expected int, got float"),
        (lambda: is_strong_nash(two_items_config(), True), TypeError,
         "expected int, got bool"),
    ],
    ids=["bins-none", "bins-mixed-d", "mixture-class-twice", "coalition-no-gain",
         "coalition-lengths", "strong-nash-cap0", "meir-moser-d0", "meir-moser-negative",
         "config-bin-of-no-item", "config-position-of-no-item", "config-bin-true",
         "config-bin-float", "move-to-bin-true", "move-to-bin-str", "dynamics-budget-true",
         "dynamics-budget-float", "strong-nash-cap-true"],
)
def test_game_refuses_hostile_arguments(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
