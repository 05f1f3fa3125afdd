"""Word families: the combinatorial layer underneath every packing.

A family assigns each class k a language of position words.  Every
language is gapped by construction, which keeps same-class cubes apart;
separated language pairs keep different classes apart.  Run with:
python3 demos/02_word_families.py
"""

import random

from cubepack import (
    are_separated,
    build_separated_family,
    count_good_words,
    warmup_family,
)


def main() -> None:
    fam = warmup_family(4)
    print(f"hand-built family in dimension {fam.d}: classes {fam.classes}")
    print(f"sizes {fam.sizes()}, weight {fam.weight()}")
    cert = fam.certify()
    print(f"certificate: {bool(cert)}")
    for k, kp, ok in cert.checks:
        print(f"  L_{k} vs L_{kp} separated: {ok}")

    randomized = build_separated_family(4, (2, 3, 4), seed=7)
    print(f"\nrandomized family, classes {randomized.classes}: "
          f"sizes {randomized.sizes()}, weight {randomized.weight()}")
    pair = are_separated(randomized.languages[2], randomized.languages[3])
    print(f"L_2 vs L_3 separated: {bool(pair)} ({pair.method}, "
          f"{pair.pairs_checked} letter-mask comparisons)")
    f2 = sorted(randomized.fsets.sets[2])
    print(f"index set F_2 behind L_2: {f2}")

    # at d=40 the cores stay a rule; separation is still exact
    implicit = build_separated_family(40, (2, 3, 4), seed=7, mode="implicit")
    print(f"\nimplicit family at d={implicit.d}, classes {implicit.classes}:")
    for k, kp, ok in implicit.certify().checks:
        print(f"  L_{k} vs L_{kp} separated: {ok}")

    # counting survivors by inclusion-exclusion instead of enumeration
    n = count_good_words(3, (1, 2, 3), [(1, 2)])
    print(f"\ngood words for k=3 on three coordinates, one blocked pair: {n}")

    rng = random.Random(0)
    w = randomized.languages[4].sample_word(rng)
    print(f"a random class-4 word: {w}")


if __name__ == "__main__":
    main()
