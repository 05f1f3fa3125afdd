"""Adversarial stream generator, counting certificates, harness, baseline."""

import math
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubepack.geometry import Bin, CubeClass, PlacedCube, find_free_position, verify_bin
from cubepack.languages import ClassCounts, build_separated_family, warmup_family
from cubepack.online import (
    OFFLINE_BIN_CAP,
    AdversaryResult,
    ClassHarmonicBaseline,
    Decision,
    HarnessViolation,
    Instance,
    InvalidScaleError,
    RatioReport,
    Segment,
    adversarial_instance,
    instance_from_dict,
    instance_to_dict,
    offline_certificate,
    run_bounded_space,
)
from cubepack.packing import (
    build_homogeneous,
    build_packing,
    packing_from_dict,
    packing_to_dict,
)


def remark_packing(d: int = 3):
    # classes {2, 3}, nu = {2: 1, 3: 4} at d = 3, weight 3/2
    return build_packing(warmup_family(d), F(1, d * d))


# ---------------------------------------------------------------------------
# instances


def test_instance_validation():
    seg = (Segment(2, 3), Segment(3, 5))
    inst = Instance(2, F(1, 9), seg)
    assert inst.total_items == 8
    assert [s.k for s in inst.segments] == [2, 3]
    assert [s.count for s in inst.segments] == [3, 5]
    with pytest.raises(ValueError):
        Instance(2, F(0), seg)
    with pytest.raises(ValueError):
        Segment(1, 3)
    with pytest.raises(ValueError):
        Segment(2, -1)


def test_instance_json_round_trip():
    inst = Instance(3, F(1, 9), (Segment(2, 16), Segment(3, 64)))
    doc = instance_to_dict(inst)
    assert doc["epsilon"] == "1/9"
    assert instance_from_dict(doc) == inst
    assert instance_from_dict({"d": 3, "epsilon": "1/9", "segments": [
        {"k": 2, "count": 16}, {"k": 3, "count": 64}], "lower_bound": 12}) == inst


# ---------------------------------------------------------------------------
# adversary and certificates


def test_paper_scale_remark_values():
    pack = remark_packing()
    # N = 1^3 * 2^3 = 8, so the default scale is C = 2*M*N
    assert pack.counts.grid_product() == 8
    assert adversarial_instance(pack, 1).scale == 16
    assert adversarial_instance(pack, 2).scale == 32


def test_adversarial_instance_paper_faithful():
    pack = remark_packing()
    result = adversarial_instance(pack, 1)
    assert result.scale == 16
    assert result.instance.segments == (Segment(2, 16), Segment(3, 64))
    assert result.instance.epsilon == F(1, 9)
    assert result.lower_bound == 12
    assert result.offline_bin_count == 16
    assert result.per_segment_lower_bounds == (8, 4)


def test_lower_bound_scales_with_m():
    pack = remark_packing()
    res = adversarial_instance(pack, 2)
    assert res.lower_bound == 24
    assert res.instance.total_items == 32 * 5


def test_minimal_scale_and_validation():
    pack = remark_packing()
    # regroup period 2 (class 3 fills a grid of 8 from 2 copies of 4), so
    # C/2 must be even; class 3 then gives C/4 bins, which must reach M
    assert pack.counts.regroup_period() == 2
    assert adversarial_instance(pack, 1, scale=4).lower_bound == 3  # (C/2) * 3/2
    for m in (1, 2, 3, 7):
        assert adversarial_instance(pack, m, scale=4 * m).scale == 4 * m
        # the next smaller admissible-looking even value must fail
        with pytest.raises(InvalidScaleError):
            adversarial_instance(pack, m, scale=4 * m - 2)
    with pytest.raises(InvalidScaleError):
        adversarial_instance(pack, 1, scale=2)  # (C/2)*nu_3 = 4 not divisible by 8
    with pytest.raises(InvalidScaleError):
        adversarial_instance(pack, 1, scale=5)  # odd
    with pytest.raises(InvalidScaleError):
        adversarial_instance(pack, 3, scale=4)  # class 3 contributes 1 bin < M
    with pytest.raises(InvalidScaleError):
        adversarial_instance(pack, 1, scale=6)
    with pytest.raises(ValueError):
        adversarial_instance(pack, 0)


# enumerate-mode families small enough to build in a few milliseconds
ENUMERATE_CASES = ((2, (2, 4)), (4, (2, 3)), (4, (2, 4)), (5, (2, 3)), (6, (2, 3, 4)))


@lru_cache(maxsize=None)
def _owners(d, classes, seed, cap):
    """(family, packing, packing after a JSON round trip); classes None
    means the warm-up family."""
    if classes is None:
        family = warmup_family(d)
    else:
        family = build_separated_family(d, classes, seed, mode="enumerate")
    packing = build_packing(family, F(1, max(family.classes) ** 2), per_class_cap=cap)
    return family, packing, packing_from_dict(packing_to_dict(packing))


@st.composite
def regrouping_cases(draw):
    """(ClassCounts, owners): the model drawn directly with no owners, d <= 4
    and one to three classes, or the placed counts of a warm-up (d 2..6) or
    small enumerate-mode family's packing, per_class_cap None or drawn."""
    kind = draw(st.sampled_from(("model", "warmup", "enumerate")))
    if kind == "model":
        d = draw(st.integers(1, 4))
        classes = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3, unique=True))
        return ClassCounts(d, {k: draw(st.integers(0, (k - 1) ** d)) for k in classes}), None
    cap = draw(st.one_of(st.none(), st.integers(1, 12)))
    if kind == "warmup":
        owners = _owners(draw(st.integers(2, 6)), None, 0, cap)
    else:
        d, classes = draw(st.sampled_from(ENUMERATE_CASES))
        owners = _owners(d, classes, draw(st.integers(0, 2)), cap)
    return owners[1].counts, owners


def _regrouped(d, counts):
    # the weight restated from its definition: sum of n_k / (k-1)^d
    return sum((F(n, (k - 1) ** d) for k, n in counts.items()), F(0))


def _scale_is_valid(packing, m, scale):
    # the counting bound's conditions, restated from their definition
    half = scale // 2
    return scale >= 2 and scale % 2 == 0 and all(
        half * n % (k - 1) ** packing.d == 0 and half * n // (k - 1) ** packing.d >= m
        for k, n in packing.nu.items()
    )


@settings(deadline=None, max_examples=300)
@given(regrouping_cases(), st.integers(1, 4), st.data())
def test_regrouping_model_matches_counting_bound(case, m, data):
    counts, owners = case
    assert counts.weight() == _regrouped(counts.d, counts.counts)
    assert counts.grid_product() == math.prod((k - 1) ** counts.d for k in counts.counts)
    t0 = counts.regroup_period()
    assert counts.grid_product() % t0 == 0
    t = data.draw(st.one_of(st.integers(1, 3 * t0), st.integers(1, 6).map(t0.__mul__)))
    if t % t0:
        with pytest.raises(ValueError):
            counts.grid_bins(t)
    else:
        bins = counts.grid_bins(t)
        assert list(bins) == sorted(counts.counts)
        assert sum(bins.values()) == t * counts.weight()
    if owners is None:
        return
    family, packing, loaded = owners
    sizes = {k: family.languages[k].count() for k in family.classes}
    for owner in (packing, loaded):
        assert owner.counts == counts
        assert owner.weight() == _regrouped(owner.d, owner.nu)
        assert family.weight() == owner.full_counts.weight() == _regrouped(owner.d, sizes)
    # odd, indivisible, below-M and valid scales, near multiples of 2*t0
    scale = data.draw(
        st.one_of(
            st.integers(-2, 4 * t0 + 1),
            st.integers(1, 2 * m + 2).map(lambda j: 2 * t0 * j),
            st.just(None),
        )
    )
    expected = 2 * m * counts.grid_product() if scale is None else scale
    if _scale_is_valid(packing, m, expected):
        adv = adversarial_instance(packing, m, scale=scale)
        assert adv.scale == adv.offline_bin_count == expected
        assert adv.lower_bound == F(expected, 2) * packing.weight()
        assert adv.per_segment_lower_bounds == tuple(
            counts.grid_bins(expected // 2)[k] for k in packing.classes
        )
    else:
        with pytest.raises(InvalidScaleError):
            adversarial_instance(packing, m, scale=scale)


def test_segment_order_options():
    pack = remark_packing()
    asc = adversarial_instance(pack, 1).instance
    desc = adversarial_instance(pack, 1, order="descending").instance
    assert asc == adversarial_instance(pack, 1, order="ascending").instance
    assert [s.k for s in asc.segments] == [2, 3]
    assert [s.k for s in desc.segments] == [3, 2]
    # only the two named orders exist; a class sequence is refused
    with pytest.raises(ValueError, match="ascending or descending"):
        adversarial_instance(pack, 1, order=[3, 2])


def test_offline_certificate_bins_verify_and_cover_instance():
    pack = remark_packing()
    result = adversarial_instance(pack, 1)
    bins = offline_certificate(pack, result.scale)
    assert len(bins) == 16
    assert all(verify_bin(b) for b in bins)
    counts: dict[int, int] = {}
    for b in bins:
        for cube in b.cubes:
            counts[cube.cls.k] = counts.get(cube.cls.k, 0) + 1
    assert counts == {seg.k: seg.count for seg in result.instance.segments}


def test_offline_certificate_guards():
    pack = remark_packing()
    with pytest.raises(ValueError):
        offline_certificate(pack, 0)
    with pytest.raises(ValueError):
        offline_certificate(pack, 200_000)


def test_offline_certificate_takes_exactly_the_bin_cap():
    # the cap itself is allowed: only a scale past it is refused
    bins = offline_certificate(remark_packing(), OFFLINE_BIN_CAP)
    assert len(bins) == OFFLINE_BIN_CAP
    with pytest.raises(ValueError, match="refusing to materialize"):
        offline_certificate(remark_packing(), OFFLINE_BIN_CAP + 1)


# ---------------------------------------------------------------------------
# harness runs with the baseline


def test_empty_instance_uses_no_bins():
    inst = Instance(2, F(1, 9), ())
    result = run_bounded_space(ClassHarmonicBaseline(1), inst, 1)
    assert result.bins_used == 0
    assert result.placements == ()


def test_single_item_uses_one_bin():
    inst = Instance(2, F(1, 9), (Segment(3, 1),))
    result = run_bounded_space(ClassHarmonicBaseline(1), inst, 1)
    assert result.bins_used == 1
    assert result.placements[0].bin_id == 0


def test_a_ratio_report_needs_both_bounds():
    # one bound alone is no ratio: the run reports none, for either bound
    inst = Instance(2, F(1, 9), (Segment(3, 1),))
    for bounds in ({"opt_upper_bound": 1}, {"certified_lower_bound": 1}):
        result = run_bounded_space(ClassHarmonicBaseline(1), inst, 1, **bounds)
        assert result.bins_used == 1 and result.report is None, bounds
    both = run_bounded_space(ClassHarmonicBaseline(1), inst, 1, opt_upper_bound=1,
                             certified_lower_bound=1)
    assert both.report == RatioReport(1, 1, 1)


def _bins_of(instance, result):
    """Bin id -> the bin the run's placements fill, rebuilt in order."""
    bins = {}
    for rec in result.placements:
        cube = PlacedCube(instance.cube_class(rec.k), rec.base)
        bins[rec.bin_id] = bins.get(rec.bin_id, Bin(instance.d)).with_cube(cube)
    return bins


def test_homogeneous_stream_grid_capacity():
    # cap (k-1)^d = 4 at k=3, d=2: ceil(10/4) = 3 bins
    inst = Instance(2, F(1, 9), (Segment(3, 10),))
    result = run_bounded_space(ClassHarmonicBaseline(1), inst, 1)
    assert result.bins_used == 3
    bins = _bins_of(inst, result)
    assert all(verify_bin(b) for b in bins.values())
    sizes = sorted(len(b) for b in bins.values())
    assert sizes == [2, 4, 4]


def test_alternating_classes_thrash_at_m1():
    segs = tuple(Segment(k, 1) for k in (2, 3, 2, 3, 2, 3, 2, 3))
    inst = Instance(2, F(1, 9), segs)
    result = run_bounded_space(ClassHarmonicBaseline(1), inst, 1)
    assert result.bins_used == 8


def test_baseline_on_remark_instance():
    pack = remark_packing()
    adv = adversarial_instance(pack, 1)
    result = run_bounded_space(
        ClassHarmonicBaseline(1),
        adv.instance,
        1,
        opt_upper_bound=adv.offline_bin_count,
        certified_lower_bound=adv.lower_bound,
    )
    assert result.bins_used == 24  # 16 singleton bins + 64/8 grid bins
    assert result.per_segment_new_bins == (16, 8)
    for new, floor in zip(result.per_segment_new_bins, adv.per_segment_lower_bounds):
        assert new >= floor
    assert result.bins_used >= adv.lower_bound
    assert result.report == RatioReport(24, 16, 12)
    assert result.report.ratio == F(3, 2)
    assert result.open_bin_ids == ()
    assert len(result.closed_bin_ids) == 24
    bins = _bins_of(adv.instance, result)
    assert len(bins) == 24
    assert all(verify_bin(b) for b in bins.values())


def test_baseline_respects_budget_m2():
    pack = remark_packing()
    adv = adversarial_instance(pack, 2, scale=8)  # the smallest valid scale at M=2
    result = run_bounded_space(ClassHarmonicBaseline(2), adv.instance, 2)
    assert result.bins_used >= adv.lower_bound


def test_baseline_grid_needs_small_epsilon():
    # side (1+2/3)/3 fits the bin but not a (k-1)-cube grid row
    inst = Instance(2, F(2, 3), (Segment(3, 1),))
    with pytest.raises(ValueError):
        run_bounded_space(ClassHarmonicBaseline(1), inst, 1)


def _digit_base(k, eps, d, index):
    """The baseline's grid base as a formula: axis j at digit j of index in
    base k-1, axis 0 least significant, times the side (1+eps)/k."""
    return tuple(index // (k - 1) ** j % (k - 1) * (1 + eps) / k for j in range(d))


@given(st.integers(2, 8), st.integers(1, 6), st.data())
def test_baseline_grid_table_matches_the_digit_formula(k, d, data):
    # eps = num/den in (0, 1/(k-1)], 1/(k-1) itself included
    den = data.draw(st.integers(k - 1, 60))
    eps = F(data.draw(st.integers(1, den // (k - 1))), den)
    index = data.draw(st.integers(0, (k - 1) ** d - 1))
    cls = CubeClass(k, eps, d)
    alg = ClassHarmonicBaseline(1)
    table, coords, cap = alg._grid(cls)
    assert table == cls and cap == (k - 1) ** d
    base = alg._grid_base(coords, d, index)
    assert base == _digit_base(k, eps, d, index)
    assert all(type(x) is F for x in base)


class _TableWatch(ClassHarmonicBaseline):
    """The baseline, recording the grid table each decide read."""

    def __init__(self, m):
        super().__init__(m)
        self.tables = []

    def decide(self, cls, open_bins):
        decision = super().decide(cls, open_bins)
        self.tables.append(self._grids[cls.k])
        return decision


@pytest.mark.parametrize("m, bins_used", [(1, 4), (2, 3)])
def test_baseline_fills_one_table_per_class_over_two_segments(m, bins_used):
    # d=2, class-3 grids of 4: at M=2 the class-3 bin stays open across the
    # class-2 item and the second class-3 segment finishes it; at M=1 the
    # class-2 bin evicts it.  Each segment brings its own equal CubeClass,
    # and the class-3 table is built once and read by every class-3 step
    inst = Instance(2, F(1, 9), (Segment(3, 3), Segment(2, 1), Segment(3, 5)))
    alg = _TableWatch(m)
    result = run_bounded_space(alg, inst, m)
    assert result.bins_used == bins_used
    assert len({id(t) for t, rec in zip(alg.tables, result.placements) if rec.k == 3}) == 1
    filled = {}
    for rec in result.placements:
        index = filled[rec.bin_id] = filled.get(rec.bin_id, -1) + 1
        assert rec.base == _digit_base(rec.k, F(1, 9), 2, index)
    assert all(verify_bin(b) for b in _bins_of(inst, result).values())


# ---------------------------------------------------------------------------
# counting-bound oracle: drawn bounded-space algorithms


class _FirstFit:
    """Each item into the lowest open bin with room, at its least free
    base, else into a fresh bin, closing the lowest open bin first when M
    are open."""

    def __init__(self, m):
        self.m = m

    def decide(self, cls, open_bins):
        for b in sorted(open_bins):
            base = find_free_position(open_bins[b].cubes, cls.side, cls.d)
            if base is not None:
                return Decision(b, base)
        close = frozenset(sorted(open_bins)[:1]) if len(open_bins) == self.m else frozenset()
        return Decision(None, (F(0),) * cls.d, close)


class _DrawnAlgorithm:
    """Each item into a drawn open bin with room, at its least free base,
    or into a fresh bin; then a drawn set of bins closes, topped up by the
    lowest open ids until at most M stay open."""

    def __init__(self, data, m):
        self.data, self.m = data, m

    def decide(self, cls, open_bins):
        fits = {}
        for b in sorted(open_bins):
            base = find_free_position(open_bins[b].cubes, cls.side, cls.d)
            if base is not None:
                fits[b] = base
        target = self.data.draw(st.sampled_from([*fits, None]))
        base = (F(0),) * cls.d if target is None else fits[target]
        # "target" stands for the bin just placed into, fresh or not
        after = [b for b in sorted(open_bins) if b != target] + ["target"]
        close = self.data.draw(st.sets(st.sampled_from(after)))
        for b in after:
            if len(after) - len(close) <= self.m:
                break
            close.add(b)
        return Decision(target, base, frozenset(close - {"target"}), "target" in close)


def _check_counting_bound(adv, result):
    # bins_used >= lower_bound, and per segment the new bins are at least
    # B_k - M = 2 * floor - M: a bin holds at most (k-1)^d class-k cubes,
    # and at most M bins were open before the segment
    assert result.bins_used >= adv.lower_bound
    for new, floor in zip(result.per_segment_new_bins, adv.per_segment_lower_bounds):
        assert new >= 2 * floor - adv.m


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_drawn_bounded_space_algorithms_meet_the_counting_bound(m, multiple, data):
    # the d=3 remark packing at scale 4*M, the smallest valid one, or 8*M
    adv = adversarial_instance(remark_packing(), m, scale=4 * m * multiple)
    result = run_bounded_space(_DrawnAlgorithm(data, m), adv.instance, m)
    _check_counting_bound(adv, result)


def test_first_fit_refutes_a_bound_without_the_open_bins():
    # d=3, M=2: first fit packs class-3 cubes beside the class-2 cube of
    # each open bin, so its 15 class-3 bins undercut B_3 = 16; 47 bins in
    # all, below sum B_k = 48 and above sum (B_k - M) = 44 and lower_bound
    adv = adversarial_instance(remark_packing(), 2)
    result = run_bounded_space(_FirstFit(2), adv.instance, 2)
    _check_counting_bound(adv, result)
    assert result.per_segment_new_bins == (32, 15)
    assert result.bins_used == 47 < 2 * sum(adv.per_segment_lower_bounds) == 48
    assert adv.lower_bound == 24
    assert sum(2 * f - 2 for f in adv.per_segment_lower_bounds) == 44


# ---------------------------------------------------------------------------
# harness contract enforcement


class _ScriptedAlgorithm:
    """Replays a fixed list of decisions."""

    def __init__(self, decisions):
        self._decisions = list(decisions)

    def decide(self, cls, open_bins):
        return self._decisions.pop(0)


def test_harness_rejects_unknown_bin():
    inst = Instance(1, F(1, 9), (Segment(2, 1),))
    alg = _ScriptedAlgorithm([Decision(7, (F(0),))])
    with pytest.raises(HarnessViolation, match="not open"):
        run_bounded_space(alg, inst, 1)


def test_harness_rejects_overlap():
    inst = Instance(1, F(1, 9), (Segment(3, 2),))
    alg = _ScriptedAlgorithm([Decision(None, (F(0),)), Decision(0, (F(0),))])
    with pytest.raises(HarnessViolation, match="invalid placement"):
        run_bounded_space(alg, inst, 1)


def test_harness_rejects_containment_breach():
    inst = Instance(1, F(1, 9), (Segment(2, 1),))
    alg = _ScriptedAlgorithm([Decision(None, (F(1, 2),))])
    with pytest.raises(HarnessViolation, match="invalid placement"):
        run_bounded_space(alg, inst, 1)


def test_harness_enforces_open_bin_budget():
    inst = Instance(1, F(1, 9), (Segment(3, 2),))
    alg = _ScriptedAlgorithm(
        [Decision(None, (F(0),)), Decision(None, (F(0),))]
    )
    with pytest.raises(HarnessViolation, match="left open"):
        run_bounded_space(alg, inst, 1)


def test_harness_seals_closed_bins():
    inst = Instance(1, F(1, 9), (Segment(3, 3),))
    alg = _ScriptedAlgorithm(
        [
            Decision(None, (F(0),), close_target=True),
            Decision(None, (F(0),)),
            Decision(0, (F(1, 2),)),  # bin 0 was closed at step 0
        ]
    )
    with pytest.raises(HarnessViolation, match="not open"):
        run_bounded_space(alg, inst, 1)


def test_harness_rejects_closing_unknown_bin():
    inst = Instance(1, F(1, 9), (Segment(3, 1),))
    alg = _ScriptedAlgorithm([Decision(None, (F(0),), close=frozenset({5}))])
    with pytest.raises(HarnessViolation, match="not open"):
        run_bounded_space(alg, inst, 1)


def test_harness_rejects_float_coordinates():
    inst = Instance(1, F(1, 9), (Segment(3, 1),))
    alg = _ScriptedAlgorithm([Decision(None, (0.0,))])
    with pytest.raises(HarnessViolation, match=r"item 0 \(class 3\): malformed base"):
        run_bounded_space(alg, inst, 1)


def test_harness_rejects_a_base_of_the_wrong_length():
    inst = Instance(2, F(1, 9), (Segment(2, 1),))
    alg = _ScriptedAlgorithm([Decision(None, (F(0),))])
    with pytest.raises(HarnessViolation, match=r"item 0 \(class 2\): malformed base"):
        run_bounded_space(alg, inst, 1)


@pytest.mark.parametrize("decision, what", [
    (Decision(0.0, (F(1, 2),)), "bin id must be an int or None"),
    (Decision(False, (F(1, 2),)), "bin id must be an int or None"),
    (Decision(None, (F(1, 2),), close=5), "close must be a set of int bin ids"),
    (Decision(None, (F(1, 2),), close=frozenset({0.0})), "close must be a set of int bin ids"),
    (Decision(None, (F(1, 2),), close_target="no"), "close_target must be a bool"),
    (Decision(None, (F(1, 2),), close_target=0.0), "close_target must be a bool"),
    (Decision(None, (F(1, 2),), close_target=1), "close_target must be a bool"),
    (None, "decide returned NoneType, not a Decision"),
], ids=["float_bin", "bool_bin", "int_close", "float_close", "str_close_target",
        "float_close_target", "int_close_target", "none"])
def test_harness_refuses_decisions_of_the_wrong_type(decision, what):
    # bin 0 is open at item 1, and 0.0 and False equal its id and hash
    # alike, so a lookup alone would take them for bin 0; a truthy
    # close_target such as "no" would retire the bin it names
    inst = Instance(1, F(1, 9), (Segment(3, 2),))
    alg = _ScriptedAlgorithm([Decision(None, (F(0),)), decision])
    with pytest.raises(HarnessViolation, match=rf"^item 1 \(class 3\): {what}"):
        run_bounded_space(alg, inst, 2)


@pytest.mark.parametrize("close_target, closed", [(False, ()), (True, (1,))])
def test_harness_takes_a_bool_close_target(close_target, closed):
    inst = Instance(1, F(1, 9), (Segment(3, 2),))
    alg = _ScriptedAlgorithm([Decision(None, (F(0),)),
                              Decision(None, (F(1, 2),), close_target=close_target)])
    result = run_bounded_space(alg, inst, 2)
    assert result.closed_bin_ids == closed
    assert result.open_bin_ids == tuple(sorted({0, 1} - set(closed)))


@pytest.mark.parametrize("last, what", [
    (Decision(1, (F(1, 3),)), "invalid placement"),  # overlaps the cube at 0
    (Decision(0, (F(1, 2),)), "placement into bin 0, which is not open"),
    (Decision(1, (F(1, 2), F(0))), "malformed base"),
    (Decision(None, (F(0),)), "2 bins left open, budget is 1"),
], ids=["overlap", "closed_bin", "base_length", "budget"])
def test_harness_names_a_later_step(last, what):
    # items 0..3 over two segments: class 2 in bin 0, closed at once, then
    # class 3 in bin 1, at 0 and 1/2; item 3 breaks a rule
    inst = Instance(1, F(1, 9), (Segment(2, 1), Segment(3, 3)))
    alg = _ScriptedAlgorithm([
        Decision(None, (F(0),), close_target=True),
        Decision(None, (F(0),)),
        Decision(1, (F(1, 2),)),
        last,
    ])
    with pytest.raises(HarnessViolation, match=rf"^item 3 \(class 3\): {what}"):
        run_bounded_space(alg, inst, 1)


# ---------------------------------------------------------------------------
# per-bin capacity and report validation


@pytest.mark.parametrize("k,d", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 2)])
def test_grid_capacity_is_tight(k, d):
    # (k-1)^d cubes tile the admissible region; one more has no free base
    eps = F(1, (k - 1) * 2) if k > 2 else F(1, 4)
    hom = build_homogeneous(k, d, eps)
    assert len(hom.bin) == (k - 1) ** d
    cls = CubeClass(k, eps, d)
    assert find_free_position(hom.bin.cubes, cls.side, d) is None
    origin = PlacedCube(cls, (F(0),) * d)
    assert not verify_bin(hom.bin.with_cube(origin))


def test_ratio_report_validation():
    assert RatioReport(24, 16, 12).ratio == F(3, 2)
    with pytest.raises(ValueError):
        RatioReport(10, 16, 12)  # bound exceeds observed bins
    with pytest.raises(ValueError):
        RatioReport(24, 0, 12)  # no offline bin count to compare against


# -- argument refusals and a packing that fails verification -------------------


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: Instance(0, F(1, 4), ()), ValueError, "dimension must be >= 1, got 0"),
        (lambda: run_bounded_space(ClassHarmonicBaseline(1), Instance(1, F(1, 4), ()), 0),
         ValueError, "open-bin budget must be >= 1, got 0"),
        (lambda: ClassHarmonicBaseline(0), ValueError, "open-bin budget must be >= 1, got 0"),
    ],
    ids=["instance-d0", "harness-m0", "baseline-m0"],
)
def test_online_refuses_hostile_arguments(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_offline_certificate_refuses_an_unverified_overlapping_packing():
    # a class-3 word placed twice: loaded without verification, the
    # certificate still checks its bin
    doc = packing_to_dict(remark_packing())
    doc["words"]["3"].append(doc["words"]["3"][0])
    with pytest.raises(HarnessViolation, match="failed verification"):
        offline_certificate(packing_from_dict(doc, verify=False), 1)
