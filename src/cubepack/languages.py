"""Word languages whose structure forces geometric disjointness.

A class-k language is a set of words over the alphabet [k] = {1..k},
one letter per dimension.  Two properties drive everything downstream:

* gapped: at every coordinate the language misses letter k-1 or k;
* separated (for k < k'): every cross pair of words has a coordinate i
  with w_i < k and w'_i = k', which makes the induced cubes disjoint.

Every language has one shape, a product: (core words on an index set
F) x (all letters below k elsewhere).  The core is either an explicit
word list or a rule: position sets inside F on each of which a good
core shows letter k.  The warm-up family and the randomized
construction are both built this way.

Separation is decided exactly on letter masks.  Write K(w) = {i : w_i = k}
and S(w') = {i : w'_i = k'}.  Every letter of w is at most k, so w_i < k
iff i is not in K(w), and a pair (w, w') has no separating coordinate iff
S(w') is a subset of K(w).  Free letters of a product language stay below
its class, so both masks live on the cores and the verdict depends on
the words only through their distinct masks.  For a rule the masks are
known in closed form: a subset M of F is the mask of a good core iff M
meets every rule set (any other core letter fills F minus M; at k = 2
the core alphabet is {2} and F is the only mask).  A nonempty rule
language therefore has F as its largest mask, and a mask K of the
smaller class contains a mask of a bigger rule language iff K & F'
meets every rule set of the bigger class.  So two rule languages are
*not* separated iff both are nonempty and F & F' meets every rule set
of the bigger class.  The randomized construction gives class k' the
rule set F_k' minus F_k, which misses F_k & F_k', so its families are
separated by construction.  As goodness is a property of the mask, a
rule's good cores are listed per good mask M: k on M and any of 1..k-2
elsewhere.  The first of them puts 1 off M, and ordering the masks by
their first cores is the order in which a scan of the sorted cores
meets them.  A budgeted selection walks F depth first instead, and
drops a prefix once a rule set it has not hit has no coordinate left.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence

from .geometry import expect_type, format_rational

# sample_f_sets draws at most this many candidate sets before giving up
F_SETS_DRAW_CAP = 200_000
# enumerate mode materializes at most this many cores per class
ENUMERATE_CAP = 1_000_000
# count_good_words sums at most this many inclusion-exclusion terms
GOOD_WORDS_TERM_CAP = 1 << 20


class FSetsSamplingError(RuntimeError):
    """Raised when index-set sampling exhausts its attempt budget."""


class FamilyConstructionError(RuntimeError):
    """Raised when a class language comes out empty or uncertifiable."""


@dataclass(frozen=True)
class Word:
    """A word over [k]: letters[i] is the letter at coordinate i+1."""

    letters: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.k < 2:
            raise ValueError(f"class index k must be >= 2, got {self.k}")
        for a in self.letters:
            if not 1 <= expect_type(a, int) <= self.k:
                raise ValueError(f"letter {a} outside [1..{self.k}]")

    @property
    def d(self) -> int:
        return len(self.letters)


def _expect_ints(values: Sequence) -> tuple[int, ...]:
    """`values` as a tuple, or a TypeError naming a value that is not an
    int: int() would truncate 2.9 to 2 and read True as 1."""
    return tuple(expect_type(v, int) for v in values)


def core_alphabet(k: int) -> tuple[int, ...]:
    """Letters allowed on the core index set: [k] minus k-1, ascending."""
    return tuple(a for a in range(1, k + 1) if a != k - 1)


class Language:
    """Class-k word set in core x free product form.

    `f_coords` is the sorted 1-based index set F, core words are tuples
    aligned with it, and off-F letters range over all of [k-1].  The core
    is either an explicit tuple of words or a rule (for scales where
    enumeration is impossible): `core_rules`, sets of coordinates inside
    F, and a core is good iff it shows letter k on each of them.  A
    rule's exact core count comes from count_good_words.

    Every language is gapped: core letters skip k-1 and free letters stay
    below k, so each coordinate of F misses k-1 and every other coordinate
    misses k, and a language holds at most (k-1)^d words.
    """

    # no language lists its words; perfbench/workloads.py::_selectable
    # still reads the attribute in the construct workload's check
    words = None

    def __init__(
        self,
        k: int,
        d: int,
        *,
        f_coords: Sequence[int],
        core_words: Optional[Sequence[tuple[int, ...]]] = None,
        core_rules: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        if k < 2 or d < 1:
            raise ValueError(f"need k >= 2 and d >= 1, got k={k} d={d}")
        self.k = k
        self.d = d
        self.core_words: Optional[tuple[tuple[int, ...], ...]] = None
        self.core_rules: Optional[tuple[frozenset[int], ...]] = None
        fc = tuple(sorted(set(_expect_ints(f_coords))))
        if len(fc) != len(tuple(f_coords)):
            raise ValueError(f"duplicate indices in f_coords {f_coords}")
        if fc and (fc[0] < 1 or fc[-1] > d):
            raise ValueError(f"f_coords {fc} outside [1..{d}]")
        self.f_coords = fc
        if (core_words is None) == (core_rules is None):
            raise ValueError("product form needs exactly one of core_words and core_rules")
        if core_rules is not None:
            self.core_rules = tuple(frozenset(_expect_ints(j)) for j in core_rules)
            self._core_count = count_good_words(k, fc, self.core_rules)
            self._rule_masks = tuple(sum(1 << i for i in j) for j in self.core_rules)
        else:
            had_c = set()
            for v in core_words:
                v = tuple(v)
                if len(v) != len(fc):
                    raise ValueError(f"core word {v} does not match |F|={len(fc)}")
                if not all(type(a) is int and 1 <= a <= k and a != k - 1 for a in v):
                    _expect_ints(v)
                    raise ValueError(f"core word {v} uses letters outside [k] minus k-1")
                had_c.add(v)
            self.core_words = tuple(sorted(had_c))
            self._core_set = had_c

    # -- sizes -------------------------------------------------------------

    def core_size(self) -> int:
        if self.core_words is not None:
            return len(self.core_words)
        return self._core_count

    def count(self) -> int:
        """Exact word count, past sys.maxsize where it must be."""
        free = self.d - len(self.f_coords)
        return self.core_size() * (self.k - 1) ** free

    # -- enumeration and membership -----------------------------------------

    @cached_property
    def _positions(self) -> tuple[int, ...]:
        """Where _assemble finds each coordinate's letter in core + free: F
        reads the core in order, the other coordinates the free letters."""
        fc = self.f_coords
        at, rest = {c: i for i, c in enumerate(fc)}, itertools.count(len(fc))
        return tuple(at[c] if c in at else next(rest) for c in range(1, self.d + 1))

    def _assemble(self, core: tuple[int, ...], free: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map((core + free).__getitem__, self._positions))

    def iter_words(self) -> Iterator[tuple[int, ...]]:
        """All words in deterministic (ascending lexicographic) order: per
        core, one itertools.product of the core letter on F and 1..k-1
        elsewhere, so the highest free coordinate moves fastest."""
        if self.core_words is None:
            raise ValueError("cannot enumerate a rule-core language")
        choices: list[Sequence[int]] = [range(1, self.k)] * self.d
        for core in self.core_words:
            for coord, a in zip(self.f_coords, core):
                choices[coord - 1] = (a,)
            yield from itertools.product(*choices)

    def contains(self, word: Sequence[int]) -> bool:
        """Membership; a letter that is not an int, as the constructor
        refuses in a core, makes the word no member."""
        w = tuple(word)
        if len(w) != self.d or any(type(a) is not int for a in w):
            return False
        core = tuple(w[i - 1] for i in self.f_coords)
        fset = set(self.f_coords)
        for coord in range(1, self.d + 1):
            if coord not in fset and not 1 <= w[coord - 1] <= self.k - 1:
                return False
        if not all(1 <= a <= self.k and a != self.k - 1 for a in core):
            return False
        if self.core_words is not None:
            return core in self._core_set
        m = _mask(self.f_coords, core, self.k)
        return all(m & r for r in self._rule_masks)

    def select_words(self, limit: Optional[int] = None) -> Iterator[tuple[int, ...]]:
        """Deterministic word selection for materializing packings.

        Without a limit, all words in ascending lexicographic order
        (core-word languages only).  With a limit, core-word languages
        yield their lexicographic prefix; rule-core languages walk their
        good cores in descending lexicographic order instead, because
        good cores concentrate near the all-k corner while the ascending
        prefix is exactly the all-bad corner, and emit one word per good
        core with all free letters set to 1.
        """
        if limit is None:
            yield from self.iter_words()
            return
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        if self.core_words is not None:
            yield from itertools.islice(self.iter_words(), limit)
            return
        free = (1,) * (self.d - len(self.f_coords))
        cores = self._good_cores(core_alphabet(self.k)[::-1])
        for core in itertools.islice(cores, limit):
            yield self._assemble(core, free)

    def selectable(self, limit: Optional[int]) -> int:
        """How many words select_words(limit) yields, counted without
        selecting one: every word, or the limit's prefix of the words or,
        for a rule, of its good cores."""
        if limit is None:
            return self.count()
        return min(limit, self.count() if self.core_words is not None else self.core_size())

    def sample_word(self, rng: random.Random) -> tuple[int, ...]:
        """Uniform-ish random word, for demos; no certificate samples."""
        if self.count() == 0:
            raise ValueError("cannot sample from an empty language")
        if self.core_words is None:
            raise ValueError("cannot sample from a rule-core language")
        core = self.core_words[rng.randrange(len(self.core_words))]
        free_n = self.d - len(self.f_coords)
        free = tuple(rng.randrange(1, self.k) for _ in range(free_n))
        return self._assemble(core, free)

    # -- letter masks --------------------------------------------------------

    def _good_cores(self, letters: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """This rule's good cores in the lexicographic order of `letters`: a
        depth-first walk over F that drops a prefix once a rule set it has
        not hit has no coordinate left, and yields every tail of a prefix
        that hits them all through one itertools.product."""
        k, n = self.k, len(self.f_coords)
        at = (*self.f_coords, self.d + 1)  # rules lie in F: r >> at[i] is 0 iff r misses F[i:]
        stack = [(0, self._rule_masks, ())]  # (depth, rule masks not hit, prefix as 1-tuples)
        while stack:
            i, unhit, prefix = stack.pop()
            if not unhit:
                yield from itertools.product(*prefix, *[letters] * (n - i))
            elif all(r >> at[i] for r in unhit):
                hit = tuple(r for r in unhit if not r >> at[i] & 1)
                # a letter other than k hits no rule: it lives iff every unhit rule goes on
                down = letters if all(r >> at[i + 1] for r in unhit) else (k,)
                stack.extend((i + 1, hit if a == k else unhit, (*prefix, (a,)))
                             for a in reversed(down))

    def _list_good_cores(self) -> None:
        """Make this rule language the one Language(k, d, f_coords=F,
        core_words=...) builds from its good cores, with no check per core:
        one itertools.product per good mask, a subset of F meeting every rule
        set, and each letter mask's first word, k on the mask and 1 elsewhere."""
        k, coords, low = self.k, self.f_coords, range(1, self.k - 1)
        # each coordinate of F shows k or, past k = 2, a letter of low
        masks = map(sum, itertools.product(*[(1 << c, 0) if low else (1 << c,) for c in coords]))
        good = [m for m in masks if all(m & r for r in self._rule_masks)]
        self.core_words = tuple(sorted(itertools.chain.from_iterable(
            itertools.product(*[(k,) if m >> c & 1 else low for c in coords]) for m in good)))
        self._core_set, self.core_rules = set(self.core_words), None
        del self._core_count, self._rule_masks
        firsts = sorted((tuple(k if m >> c & 1 else 1 for c in range(1, self.d + 1)), m)
                        for m in good)
        self._letter_masks = {m: w for w, m in firsts}

    @cached_property
    def _letter_masks(self) -> dict[int, tuple[int, ...]]:
        """Distinct masks {i : w_i = k} (bit i set), each with its first word.

        Explicit cores are scanned in enumeration order, and a core's
        first word has every free letter 1.  A rule contributes only its
        largest mask F, through the all-k core, and nothing when it is
        empty (see the module docstring).
        """
        k = self.k
        masks: dict[int, tuple[int, ...]] = {}
        if self.core_words is not None:
            cores = self.core_words
        else:
            cores = ((k,) * len(self.f_coords),) if self._core_count else ()
        free = (1,) * (self.d - len(self.f_coords))
        for v in cores:
            m = _mask(self.f_coords, v, k)
            if m not in masks:
                masks[m] = self._assemble(v, free)
        return masks


def _mask(coords: Sequence[int], letters: Sequence[int], letter: int) -> int:
    """Bit set of the coordinates whose letter is `letter`."""
    m = 0
    for c, a in zip(coords, letters):
        if a == letter:
            m |= 1 << c
    return m


# -- separated predicate -----------------------------------------------------


@dataclass(frozen=True)
class SeparationResult:
    """Truthy iff no failing word pair was found."""

    method: str  # always "product-core"; perfbench/tracing.py and the golden pins read it
    pairs_checked: int  # letter-mask comparisons made
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None  # failing pair

    def __bool__(self) -> bool:
        return self.witness is None


def are_separated(small: Language, big: Language) -> SeparationResult:
    """Decide separation of a class pair k < k' exactly.

    A word pair (w, w') fails iff S(w') = {i : w'_i = k'} is a subset of
    K(w) = {i : w_i = k}: a coordinate outside K(w) carries a letter
    below k, and one inside S(w') carries k'.  Free letters never reach
    k or k', so both masks live on the cores, and the check compares
    the distinct masks of the two languages instead of their words.
    Against a bigger rule language it is closed form: a mask K fails
    iff K & F' meets every rule set of the bigger class (a rule's good
    cores realise exactly the subsets of F' that meet each rule set), and
    a smaller rule language needs only its largest mask, F.  The module
    docstring has the full argument.

    The method always reads "product-core".  pairs_checked counts mask
    comparisons.  The witness is the first failing word pair with small
    words outer and big words inner, in enumeration order and with free
    letters 1; against a bigger rule language its big word shows k'
    exactly on K & F' and 1 elsewhere.
    """
    k, kp = small.k, big.k
    if k >= kp:
        raise ValueError(f"need k < k', got {k} >= {kp}")
    if small.d != big.d:
        raise ValueError("dimension mismatch")
    method, pairs = "product-core", 0
    if big.core_rules is not None:
        f_big = sum(1 << c for c in big.f_coords)
        for kmask, w in small._letter_masks.items():
            pairs += 1
            s = kmask & f_big
            if all(s & r for r in big._rule_masks):
                core = tuple(kp if s >> c & 1 else 1 for c in big.f_coords)
                wp = big._assemble(core, (1,) * (big.d - len(big.f_coords)))
                return SeparationResult(method, pairs, (w, wp))
        return SeparationResult(method, pairs)
    big_masks = big._letter_masks.items()
    for kmask, w in small._letter_masks.items():
        for smask, wp in big_masks:
            pairs += 1
            if not smask & ~kmask:
                return SeparationResult(method, pairs, (w, wp))
    return SeparationResult(method, pairs)


# -- index-set sampling ------------------------------------------------------


@dataclass
class FSets:
    """Half-size index sets with pairwise-small intersections.

    sets maps an index (a class value) to a ceil(d/2)-subset of [1..d];
    every pair of stored sets intersects in fewer than `threshold`
    elements, which keeps each difference set F_k minus F_l nonempty.
    """

    d: int
    threshold: Fraction
    sets: dict[int, frozenset[int]]
    rejections: int = 0

    def __post_init__(self) -> None:
        size = -(-self.d // 2)
        for idx, s in self.sets.items():
            if len(s) != size:
                raise ValueError(f"F_{idx} has size {len(s)}, expected {size}")
            if any(not 1 <= i <= self.d for i in s):
                raise ValueError(f"F_{idx} leaves [1..{self.d}]")
        for a, b in itertools.combinations(sorted(self.sets), 2):
            inter = len(self.sets[a] & self.sets[b])
            if not inter < self.threshold:
                raise ValueError(
                    f"|F_{a} & F_{b}| = {inter} not below threshold {self.threshold}"
                )


def sample_f_sets(
    d: int,
    seed: int,
    indices: Optional[Sequence[int]] = None,
) -> FSets:
    """Sample index sets F_i (|F_i| = ceil(d/2)) with small pairwise overlap.

    Each set is drawn uniformly and redrawn until it meets the overlap
    threshold against all previously accepted sets; a stuck prefix
    triggers a full restart.  The total number of redraws is recorded
    so callers can see how hard the constraint was.  The threshold is
    7d/26, the strict bound the asymptotic argument needs.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    threshold = Fraction(7 * d, 26)
    idx = tuple(indices) if indices is not None else tuple(range(1, d + 1))
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate indices {idx}")
    size = -(-d // 2)
    if len(idx) > 1:
        min_overlap = max(0, 2 * size - d)
        if not min_overlap < threshold:
            raise FSetsSamplingError(
                f"threshold {threshold} is infeasible: two {size}-subsets of "
                f"[1..{d}] always share at least {min_overlap} elements"
            )
    rng = random.Random(seed)
    universe = list(range(1, d + 1))
    attempts = 0
    rejections = 0
    per_set_budget = 2_000
    while attempts < F_SETS_DRAW_CAP:
        chosen: dict[int, frozenset[int]] = {}
        stuck = False
        for key in idx:
            ok = False
            for _ in range(per_set_budget):
                attempts += 1
                if attempts > F_SETS_DRAW_CAP:
                    break
                cand = frozenset(rng.sample(universe, size))
                if all(len(cand & prev) < threshold for prev in chosen.values()):
                    chosen[key] = cand
                    ok = True
                    break
                rejections += 1
            if not ok:
                stuck = True
                break
        if not stuck:
            return FSets(d, threshold, chosen, rejections)
    raise FSetsSamplingError(
        f"gave up after {attempts} draws (d={d}, threshold={threshold}, "
        f"{len(idx)} sets); the constraint is too tight at this scale"
    )


# -- bad words and good-word counting ----------------------------------------


def is_bad_word(
    v: Sequence[int],
    k: int,
    j_set: Sequence[int],
    f_coords: Optional[Sequence[int]] = None,
) -> bool:
    """True iff core word v avoids letter k on every index in j_set.

    v is aligned with f_coords (default 1..len(v)); an empty j_set is
    vacuously bad, which is exactly why empty difference sets poison
    the construction.
    """
    v = tuple(v)
    coords = tuple(f_coords) if f_coords is not None else tuple(range(1, len(v) + 1))
    if len(coords) != len(v):
        raise ValueError("f_coords must align with v")
    pos = {c: i for i, c in enumerate(coords)}
    try:
        return all(v[pos[i]] != k for i in j_set)
    except KeyError as exc:
        raise ValueError(f"j_set index {exc.args[0]} not in f_coords") from exc


def count_good_words(
    k: int,
    f_coords: Sequence[int],
    j_sets: Sequence[Sequence[int]],
) -> int:
    """Exact number of core words that are bad for no difference set.

    Inclusion-exclusion over subsets T of the difference sets: a word
    avoids k on the union U(T) in (k-2)^|U(T)| * (k-1)^(|F|-|U(T)|)
    ways, signed by |T|.  2^len(j_sets) terms; past GOOD_WORDS_TERM_CAP
    it raises ValueError.
    """
    f = frozenset(_expect_ints(f_coords))
    js = [frozenset(_expect_ints(j)) for j in j_sets]
    for j in js:
        if not j <= f:
            raise ValueError(f"difference set {sorted(j)} leaves F {sorted(f)}")
    m = len(js)
    _check_terms(m)
    bits = [sum(1 << c for c in j) for j in js]
    unions = [0] * (1 << m)  # bit c set iff coordinate c is in the union
    total = 0
    for mask in range(1 << m):
        if mask:
            low = mask & -mask
            unions[mask] = unions[mask ^ low] | bits[low.bit_length() - 1]
        u = unions[mask].bit_count()
        term = (k - 2) ** u * (k - 1) ** (len(f) - u)
        total += -term if mask.bit_count() % 2 else term
    return total


def _check_terms(m: int) -> None:
    """Refuse a count over m difference sets, 2^m terms, past the cap."""
    if 1 << m > GOOD_WORDS_TERM_CAP:
        raise ValueError(f"2^{m} inclusion-exclusion terms exceed cap {GOOD_WORDS_TERM_CAP}")


# -- families ----------------------------------------------------------------


@dataclass(frozen=True)
class ClassCounts:
    """Per-class cube counts n_k in dimension d, and the regrouping arithmetic.

    A bin holds at most (k-1)^d class-k cubes, the full grid H_k, so the
    weight w = sum_k n_k/(k-1)^d counts the grid bins one copy of the cubes
    regroups into: the counting step behind the online lower bound and the
    price of anarchy, over a family's sizes |L_k| or a packing's nu_k.
    """

    d: int
    counts: Mapping[int, int]  # class -> n_k, ascending by class

    def __post_init__(self) -> None:
        for k, n in self.counts.items():
            if k < 2:
                raise ValueError(f"class must be >= 2, got {k}")
            if n < 0:
                raise ValueError(f"class {k} count must be >= 0, got {n}")
        object.__setattr__(self, "counts", dict(sorted(self.counts.items())))

    @staticmethod
    def grid_size(k: int, d: int) -> int:
        """(k-1)^d: the class-k cubes one bin holds on the grid H_k."""
        return (k - 1) ** d

    def grid_product(self) -> int:
        """N = prod_k (k-1)^d: a copy count that regroups into full grids."""
        return math.prod(self.grid_size(k, self.d) for k in self.counts)

    def grid_bins(self, copies: int) -> dict[int, int]:
        """Class -> full grid bins that `copies` copies of the counts fill.

        Raises ValueError naming the first class left with a partial grid.
        """
        bins: dict[int, int] = {}
        for k, n in self.counts.items():
            cubes, size = copies * n, self.grid_size(k, self.d)
            if cubes % size:
                raise ValueError(
                    f"class {k} has {cubes} cubes at copy count {copies}, "
                    f"not a multiple of the grid size (k-1)^d = {size}"
                )
            bins[k] = cubes // size
        return bins

    def regroup_period(self) -> int:
        """Fewest copies whose cubes regroup into full class grids.

        Class k fills whole (k-1)^d grids from t copies iff (k-1)^d divides
        t*n_k, so the answer is lcm_k((k-1)^d / gcd(n_k, (k-1)^d)).
        """
        t0 = 1
        for k, n in self.counts.items():
            size = self.grid_size(k, self.d)
            t0 = math.lcm(t0, size // math.gcd(n, size))
        return t0

    def weight(self) -> Fraction:
        """Sum of n_k / (k-1)^d: the grid bins one copy regroups into.  Summed
        in balanced pairs, whose gcds run on denominators of like size."""
        terms = [Fraction(n, self.grid_size(k, self.d)) for k, n in self.counts.items()]
        while len(terms) > 1:
            terms = [sum(terms[i:i + 2]) for i in range(0, len(terms), 2)]
        return terms[0] if terms else Fraction(0)


@dataclass
class ClassStats:
    k: int
    f_size: int
    core_total: int
    core_good: int


@dataclass
class FamilyCertificate:
    checks: tuple[tuple[int, int, bool], ...]  # (k, k', ok) per class pair

    def __bool__(self) -> bool:
        return all(ok for *_, ok in self.checks)


@dataclass
class SeparatedFamily:
    """A certified collection {L_k} of pairwise separated gapped languages."""

    d: int
    classes: tuple[int, ...]
    languages: dict[int, Language]
    fsets: Optional[FSets] = None
    seed: Optional[int] = None
    mode: str = "enumerate"
    stats: dict[int, ClassStats] = field(default_factory=dict)

    def sizes(self) -> dict[int, int]:
        return {k: self.languages[k].count() for k in self.classes}

    def weight(self) -> Fraction:
        """Sum over classes of |L_k| / (k-1)^d, the packing's bin count payoff."""
        return ClassCounts(self.d, self.sizes()).weight()

    def certify(self) -> FamilyCertificate:
        checks = tuple((k, kp, bool(are_separated(self.languages[k], self.languages[kp])))
                       for k, kp in itertools.combinations(self.classes, 2))
        return FamilyCertificate(checks)


def warmup_family(d: int) -> SeparatedFamily:
    """The hand-built family: L_k pins letter k at coordinate k.

    For 2 <= k <= d, L_k = {w in [k]^d : w_k = k, w_i < k otherwise},
    in product form with the singleton core (k) on F = {k}.  Sizes are
    (k-1)^(d-1) and the weight telescopes to sum of 1/(k-1).
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    langs = {
        k: Language(k, d, f_coords=(k,), core_words=((k,),)) for k in range(2, d + 1)
    }
    return SeparatedFamily(d, tuple(range(2, d + 1)), langs, mode="enumerate")


def build_separated_family(
    d: int,
    classes: Sequence[int],
    seed: int,
    mode: str = "enumerate",
    fsets: Optional[FSets] = None,
) -> SeparatedFamily:
    """Randomized separated family over the given classes.

    Per class k, core words over [k] minus k-1 live on the sampled
    index set F_k; a core is dropped as bad when it avoids letter k on
    some difference set F_k minus F_l (l a smaller class).  Surviving
    words are separated from every smaller class by construction: a
    good core shows letter k inside F_k minus F_l, where the smaller
    language only has letters below l.

    enumerate mode materializes cores per good letter mask (refusing past
    ENUMERATE_CAP) and reads certify's letter masks off those masks;
    implicit mode keeps the difference sets as the language's rule, with
    the exact inclusion-exclusion count.  Failures raise rather than
    repair, and the refusals that need no count (empty difference set,
    term cap, enumerate cap) run for every class, in class order, before
    any class is counted.  No class is empty: its difference sets are
    nonempty subsets of F_k, so the core with k all over F_k is good.
    """
    cls = tuple(sorted(set(_expect_ints(classes))))
    if not cls:
        raise ValueError("need at least one class")
    if cls[0] < 2:
        raise ValueError(f"classes must be >= 2, got {cls[0]}")
    if mode not in ("enumerate", "implicit"):
        raise ValueError(f"unknown mode {mode!r}")
    if fsets is None:
        fsets = sample_f_sets(d, seed, indices=cls)
    missing = [k for k in cls if k not in fsets.sets]
    if missing:
        raise ValueError(f"fsets lacks entries for classes {missing}")

    rules: dict[int, list[frozenset[int]]] = {}
    for k in cls:
        f_k = fsets.sets[k]
        j_sets = []
        for l in cls:
            if l >= k:
                break
            j = f_k - fsets.sets[l]
            if not j:
                raise FamilyConstructionError(
                    f"difference set F_{k} minus F_{l} is empty; every class-{k} "
                    f"core would be bad"
                )
            j_sets.append(frozenset(j))
        _check_terms(len(j_sets))
        total = (k - 1) ** len(f_k)
        if mode == "enumerate" and total > ENUMERATE_CAP:
            raise ValueError(
                f"class {k}: {total} cores exceed enumerate cap {ENUMERATE_CAP}; "
                f"use implicit mode"
            )
        rules[k] = j_sets

    languages: dict[int, Language] = {}
    stats: dict[int, ClassStats] = {}
    for k, j_sets in rules.items():
        coords = tuple(sorted(fsets.sets[k]))
        languages[k] = lang = Language(k, d, f_coords=coords, core_rules=j_sets)
        if mode == "enumerate":
            lang._list_good_cores()
        stats[k] = ClassStats(k, len(coords), (k - 1) ** len(coords), lang.core_size())

    family = SeparatedFamily(d, cls, languages, fsets, seed, mode, stats)
    cert = family.certify()
    if not cert:
        raise FamilyConstructionError(f"family failed certification: {cert.checks}")
    return family


# -- JSON encoding -----------------------------------------------------------
#
# Family file format:
#   {"d": int, "classes": [...], "seed": int|null, "mode": str,
#    "threshold": "p/q"|null,
#    "fsets": {"k": [indices]}|null,
#    "languages": [{"k": int, "F": [...], "core_words": [[...]]}
#                  or {"k": int, "F": [...], "core_count": int}]}


def family_to_dict(family: SeparatedFamily) -> dict:
    langs = []
    for k in family.classes:
        lang = family.languages[k]
        entry: dict = {"k": k, "F": list(lang.f_coords)}
        if lang.core_words is not None:
            entry["core_words"] = [list(v) for v in lang.core_words]
        else:
            entry["core_count"] = lang.core_size()
        langs.append(entry)
    return {
        "d": family.d,
        "classes": list(family.classes),
        "seed": family.seed,
        "mode": family.mode,
        "threshold": format_rational(family.fsets.threshold) if family.fsets else None,
        "fsets": (
            {str(k): sorted(v) for k, v in family.fsets.sets.items()}
            if family.fsets
            else None
        ),
        "languages": langs,
    }
