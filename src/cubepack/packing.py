"""From word families to certified cube packings of the unit bin.

A class-k word picks one interval per dimension out of k staggered
candidates of length (1 + eps)/k; separated families therefore land as
pairwise disjoint open cubes in one bin.  The module also builds the
homogeneous grids H_k (all (k-1)^d class-k cubes in one bin) and the
report drivers that chase the asymptotic weight targets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .geometry import (
    Bin,
    CubeClass,
    PlacedCube,
    _factored_bin,
    _grid_bin,
    as_rational,
    expect_type,
    format_rational,
    occupied_volume,
    verify_bin,
)
from .languages import (
    ENUMERATE_CAP,
    ClassCounts,
    FamilyConstructionError,
    FSetsSamplingError,
    SeparatedFamily,
    Word,
    build_separated_family,
    warmup_family,
)


# build_packing refuses to materialize more cubes than this in one bin
MATERIALIZE_CAP = 100_000
# the report drivers assert their asymptotic weight targets from this d on
ASYMPTOTIC_D0 = 1 << 20


class PackingVerificationError(RuntimeError):
    """A constructed packing failed its own geometric certificate (a bug)."""


def _check_eps_for_base(k: int, epsilon: Fraction) -> Fraction:
    epsilon = as_rational(epsilon)
    if not 0 < epsilon < Fraction(1, k - 1):
        raise ValueError(
            f"need 0 < epsilon < 1/{k - 1} for class {k} base points, got {epsilon}"
        )
    return epsilon


def base_coordinate(k: int, j: int, epsilon) -> Fraction:
    """Base point of the j-th class-k interval.

    The first k-1 intervals sit on the grid (j-1)(1+eps)/k; the k-th is
    right-aligned at 1 - (1+eps)/k, which makes it overlap interval
    k-1 and only that one.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if not 1 <= j <= k:
        raise ValueError(f"need 1 <= j <= {k}, got {j}")
    epsilon = _check_eps_for_base(k, epsilon)
    if j == k:
        return 1 - (1 + epsilon) / k
    return (j - 1) * (1 + epsilon) / k


def end_coordinate(k: int, j: int, epsilon) -> Fraction:
    """Upper endpoint of the j-th class-k interval."""
    return base_coordinate(k, j, epsilon) + (1 + as_rational(epsilon)) / k


def gap_inequality_holds(k: int, kp: int, epsilon) -> bool:
    """Exact cross-class clearance: top of interval k-1 of the lower class
    stays strictly below the base of the top interval of the higher class."""
    if not 2 <= k < kp:
        raise ValueError(f"need 2 <= k < k', got {k}, {kp}")
    epsilon = as_rational(epsilon)
    return (k - 1) * (1 + epsilon) / k < 1 - (1 + epsilon) / kp


def _class_table(k: int, epsilon, d: int, letters) -> tuple[CubeClass, dict[int, Fraction]]:
    """(cls, table) of class k: table maps each letter to its base point,
    base_coordinate (and its checks) run once per letter."""
    cls = CubeClass(k, epsilon, d)
    epsilon = _check_eps_for_base(k, cls.epsilon)
    return cls, {j: base_coordinate(k, j, epsilon) for j in letters}


def place_word(word: Word, epsilon) -> PlacedCube:
    """Cube of class word.k whose dimension-i interval is picked by letter i."""
    cls, table = _class_table(word.k, epsilon, word.d, word.letters)
    return PlacedCube(cls, tuple(map(table.__getitem__, word.letters)))


@dataclass
class TypedPacking:
    """A verified single-bin packing plus its per-class bookkeeping."""

    d: int
    epsilon: Fraction
    bin: Bin
    nu: dict[int, int]  # class -> number of cubes placed
    words: dict[int, tuple[tuple[int, ...], ...]]  # class -> placed words
    family_sizes: Optional[dict[int, int]] = None  # full |L_k| when known

    @property
    def classes(self) -> tuple[int, ...]:
        return tuple(sorted(self.nu))

    @property
    def k_max(self) -> int:
        return max(self.nu)

    @property
    def counts(self) -> ClassCounts:
        """The regrouping model over the placed counts nu."""
        return ClassCounts(self.d, self.nu)

    @property
    def full_counts(self) -> ClassCounts:
        """The regrouping model over the full family sizes, or nu without them."""
        return ClassCounts(self.d, self.family_sizes or self.nu)

    def weight(self) -> Fraction:
        """Sum of nu_k / (k-1)^d: how many grid bins one copy regroups into."""
        return self.counts.weight()

    def occupied(self) -> Fraction:
        return occupied_volume(self.bin)


def _typed_packing(d: int, epsilon: Fraction, words: dict, family_sizes: Optional[dict],
                   verify: bool, failure: str) -> TypedPacking:
    """The one way to a TypedPacking: check the shape and the family sizes,
    place one cube per word, then verify the bin or raise `failure`.

    d is at least 1 and every class places at least one word.  Each |L_k|
    covers the distinct placed words of class k and is at most (k-1)^d,
    the class-k cubes one bin holds.
    """
    nu = {k: len(selected) for k, selected in words.items()}
    if d < 1 or not nu or 0 in nu.values():
        raise ValueError(f"a packing needs d >= 1 and at least one class, each placing "
                         f"a word; got d={d} and words per class {nu}")
    if family_sizes is not None:
        full = ClassCounts(d, family_sizes)
        if full.counts.keys() != words.keys():
            raise ValueError(f"family_sizes classes {list(full.counts)} are not "
                             f"the word classes {sorted(words)}")
        for k, n in full.counts.items():
            if not len(set(words[k])) <= n <= full.grid_size(k, d):
                raise ValueError(f"class {k} family size {n} is below its distinct "
                                 f"words or above (k-1)^d = {full.grid_size(k, d)}")
    for k, w in ((k, w) for k, ws in words.items() for w in ws):
        if len(w) != d:
            raise ValueError(f"class {k} word {list(w)} has length {len(w)}, not d={d}")
    b = _factored_bin(d, tuple((*_class_table(k, epsilon, d, set().union(*ws)), ws)
                               for k, ws in words.items()))
    if verify:
        report = verify_bin(b)
        if not report:
            raise PackingVerificationError(
                f"{failure}: bad_cube={report.bad_cube} pair={report.offending_pair}"
            )
    return TypedPacking(d, epsilon, b, nu, words, family_sizes)


def build_packing(
    family: SeparatedFamily,
    epsilon,
    *,
    per_class_cap: Optional[int] = None,
) -> TypedPacking:
    """Place a separated family's words as disjoint cubes in one bin.

    Requires 0 < eps <= 1/k_max^2 (the packing hypothesis) and checks
    the exact cross-class gap inequality for every class pair before
    building.  The result is certified by verify_bin; a failure raises,
    it is never silently accepted.  per_class_cap limits how many words
    per class are materialized (mandatory for rule-core families).
    """
    epsilon = as_rational(epsilon)
    classes = family.classes
    k_max = max(classes)
    if not 0 < epsilon <= Fraction(1, k_max * k_max):
        raise ValueError(
            f"need 0 < epsilon <= 1/{k_max * k_max} for classes up to {k_max}, "
            f"got {epsilon}"
        )
    # its left side grows with k and its right side with k': on ascending
    # classes adjacent pairs decide every pair, and fail first in order
    for k, kp in zip(classes, classes[1:]):
        if not gap_inequality_holds(k, kp, epsilon):
            raise ValueError(
                f"gap inequality fails for classes ({k}, {kp}) at epsilon {epsilon}"
            )

    words: dict[int, tuple[tuple[int, ...], ...]] = {}
    room = MATERIALIZE_CAP
    for k in classes:
        # one word past the room proves the cap broken without reading on
        selected = family.languages[k].select_words(per_class_cap)
        words[k] = tuple(itertools.islice(selected, room + 1))
        room -= len(words[k])
        if room < 0:
            raise ValueError(
                f"materializing more than {MATERIALIZE_CAP} cubes; "
                f"pass per_class_cap to bound the packing"
            )
    return _typed_packing(
        family.d, epsilon, words, family.sizes(), True, "packing failed verification"
    )


@dataclass
class HomogeneousBin:
    """All (k-1)^d class-k cubes on the left-aligned grid in one bin."""

    k: int
    d: int
    epsilon: Fraction
    bin: Bin

    @property
    def cube_count(self) -> int:
        return ClassCounts.grid_size(self.k, self.d)


def build_homogeneous(k: int, d: int, epsilon) -> HomogeneousBin:
    """Grid packing with bases i*(1+eps)/k, i in {0..k-2}^d.

    Needs 0 < eps <= 1/(k-1); at the boundary the last cube ends exactly
    at 1 and neighbouring cubes share facets, which open cubes allow.
    The bin is a product grid over the k-1 coordinates, so verify_bin
    certifies it from them rather than cube by cube.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    epsilon = as_rational(epsilon)
    if not 0 < epsilon <= Fraction(1, k - 1):
        raise ValueError(f"need 0 < epsilon <= 1/{k - 1}, got {epsilon}")
    cls = CubeClass(k, epsilon, d)
    b = _grid_bin(cls, [i * cls.side for i in range(k - 1)])
    report = verify_bin(b)
    if not report:
        raise PackingVerificationError(f"grid packing failed: {report}")
    return HomogeneousBin(k, d, epsilon, b)


# -- report drivers -----------------------------------------------------------


def _log(x: float, log_base: str) -> float:
    if log_base == "natural":
        return math.log(x)
    if log_base == "2":
        return math.log2(x)
    raise ValueError(f"log_base must be 'natural' or '2', got {log_base!r}")


@dataclass
class DensePackingReport:
    """Outcome of the many-classes construction at a given dimension.

    Targets involving log d are irrational, so they are reported as
    floats and asserted only from the asymptotic scale ASYMPTOTIC_D0 on;
    every packing quantity stays exact.
    """

    d: int
    log_base: str
    s_formula: int
    s_effective: int
    epsilon: Fraction
    family_mode: str  # "randomized" | "warmup-fallback"
    fallback_reason: Optional[str]
    packing: TypedPacking
    weight_full: Fraction
    target_density: float  # d / (5 log d)
    target_fraction: Fraction  # (10/11)(S - 1)
    meets_density: bool
    meets_fraction: bool
    asserted: bool


def _build_family(d: int, classes: tuple, seed: int) -> SeparatedFamily:
    """build_separated_family in enumerate mode when every class has at
    most ENUMERATE_CAP cores, (k-1)^ceil(d/2) each, else in implicit mode."""
    core_sizes = max((k - 1) ** (-(-d // 2)) for k in classes)
    mode = "enumerate" if core_sizes <= ENUMERATE_CAP else "implicit"
    return build_separated_family(d, classes, seed, mode=mode)


def dense_packing_report(
    d: int,
    seed: int = 0,
    *,
    log_base: str = "natural",
    per_class_cap: int = 200,
) -> DensePackingReport:
    """Build the densest-available family at dimension d and report.

    S = ceil(2d / (9 log d)) classes when the randomized construction
    is feasible; otherwise the hand-built family over classes 2..d with
    eps = 1/d^2 serves as a labeled fallback (S < 2, sampler failure,
    or an empty class at desk scale all trigger it).
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    s_formula = math.ceil(2 * d / (9 * _log(d, log_base)))
    fallback_reason: Optional[str] = None
    family = None
    s_eff = s_formula
    if s_formula >= 2:
        try:
            family = _build_family(d, tuple(range(2, s_formula + 1)), seed)
        except (FSetsSamplingError, FamilyConstructionError, ValueError) as exc:
            fallback_reason = str(exc)
    else:
        fallback_reason = f"S = {s_formula} < 2 leaves no classes"
    if family is None:
        family = warmup_family(d)
        s_eff = d
        family_mode = "warmup-fallback"
    else:
        family_mode = "randomized"
    epsilon = Fraction(1, s_eff * s_eff)
    packing = build_packing(family, epsilon, per_class_cap=per_class_cap)
    weight_full = family.weight()
    target_density = d / (5 * _log(d, log_base))
    target_fraction = Fraction(10, 11) * (s_eff - 1)
    meets_density = float(weight_full) >= target_density
    meets_fraction = weight_full >= target_fraction
    asserted = d >= ASYMPTOTIC_D0
    if asserted and not (meets_density and meets_fraction):
        raise RuntimeError(
            f"asymptotic weight target failed at asserted scale d={d}: "
            f"weight {weight_full} vs density {target_density} / fraction {target_fraction}"
        )
    return DensePackingReport(
        d,
        log_base,
        s_formula,
        s_eff,
        epsilon,
        family_mode,
        fallback_reason,
        packing,
        weight_full,
        target_density,
        target_fraction,
        meets_density,
        meets_fraction,
        asserted,
    )


@dataclass
class PowerOfTwoPackingReport:
    """Outcome of the powers-of-two construction at a given dimension."""

    d: int
    log_base: str  # convention for the inner log d
    s_prime: int
    s_prime_overridden: bool
    classes: tuple[int, ...]
    epsilon: Optional[Fraction]
    packing: Optional[TypedPacking]
    weight_full: Optional[Fraction]
    target_log_d: float
    meets_target: Optional[bool]
    status: str  # "built" | "degenerate"
    asserted: bool


def power_of_two_s_prime(d: int, log_base: str = "natural") -> int:
    """ceil(log2 d - log2 log d - 3); the inner log base is a recorded choice."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    return math.ceil(math.log2(d) - math.log2(_log(d, log_base)) - 3)


def power_of_two_packing_report(
    d: int,
    seed: int = 0,
    *,
    log_base: str = "natural",
    s_prime: Optional[int] = None,
    per_class_cap: int = 200,
) -> PowerOfTwoPackingReport:
    """Build the family over classes {2, 4, ..., 2^(S'-1)} and report.

    With S' from the formula (or an explicit override for desk-scale
    demonstration), eps = 4^-(S'-1).  S' < 2 yields an empty class set;
    that is reported as degenerate rather than repaired.
    """
    formula = power_of_two_s_prime(d, log_base)
    sp = s_prime if s_prime is not None else formula
    overridden = s_prime is not None
    target = _log(d, log_base)
    asserted = d >= ASYMPTOTIC_D0
    if sp < 2:
        if asserted:
            raise RuntimeError(f"S' = {sp} < 2 at asserted scale d={d}")
        return PowerOfTwoPackingReport(
            d, log_base, sp, overridden, (), None, None, None, target, None,
            "degenerate", asserted,
        )
    classes = tuple(2 ** (j - 1) for j in range(2, sp + 1))
    epsilon = Fraction(1, 4 ** (sp - 1))
    family = _build_family(d, classes, seed)
    packing = build_packing(family, epsilon, per_class_cap=per_class_cap)
    weight_full = family.weight()
    meets = float(weight_full) >= target
    if asserted and not meets:
        raise RuntimeError(
            f"power-of-two weight target failed at asserted scale d={d}: "
            f"{weight_full} < {target}"
        )
    return PowerOfTwoPackingReport(
        d, log_base, sp, overridden, classes, epsilon, packing, weight_full,
        target, meets, "built", asserted,
    )


# -- JSON ----------------------------------------------------------------------


def packing_to_dict(packing: TypedPacking) -> dict:
    """Words, not coordinates: the cubes are rebuilt on load and re-verified."""
    doc: dict = {
        "d": packing.d,
        "epsilon": format_rational(packing.epsilon),
        "words": {
            str(k): [list(w) for w in packing.words[k]] for k in packing.classes
        },
    }
    if packing.family_sizes is not None:
        doc["family_sizes"] = {str(k): n for k, n in sorted(packing.family_sizes.items())}
    return doc


def packing_from_dict(data: Mapping, *, verify: bool = True) -> TypedPacking:
    """Inverse of packing_to_dict; unknown keys (manifest, report) are ignored."""
    d = expect_type(data["d"], int)
    epsilon = as_rational(data["epsilon"])
    rows = expect_type(data["words"], dict)
    words = {
        int(key): tuple(
            tuple(expect_type(x, int) for x in expect_type(w, list))
            for w in expect_type(rows[key], list)
        )
        for key in sorted(rows, key=int)
    }
    if len(words) != len(rows):
        raise ValueError(f"words name a class twice: {sorted(rows)}")
    given = data.get("family_sizes")
    sizes = None if given is None else {
        int(k): expect_type(n, int) for k, n in expect_type(given, dict).items()}
    if sizes is not None and len(sizes) != len(given):
        raise ValueError(f"family_sizes name a class twice: {sorted(given)}")
    return _typed_packing(
        d, epsilon, words, sizes, verify, "loaded packing fails verification"
    )
