"""Selfish cube packing: equilibria, dynamics, and the anarchy gap.

Each cube pays its volume share of its bin's occupied volume, so items
prefer fuller bins.  Full grids are stable; scattering the same cubes
across more bins can also be stable, and the gap between the two is
the price of anarchy.  Run with: python3 demos/05_selfish_games.py
"""

from fractions import Fraction as F

from cubepack import (
    best_response_dynamics,
    build_packing,
    build_separated_family,
    homogeneous_mixture,
    is_nash,
    poa_instance,
    spoa_instance,
    warmup_family,
)


def main() -> None:
    cfg = homogeneous_mixture([2, 3], 2, F(1, 4))
    print(f"one full class-2 grid next to one full class-3 grid: "
          f"{len(cfg.items)} items in {len(cfg.bins_map)} bins")
    print(f"equilibrium: {bool(is_nash(cfg))}")

    # start every item in its own bin and let best responses run
    origin = (F(0), F(0))
    scattered = cfg.with_moves(
        {it.item_id: (100 + it.item_id, origin) for it in cfg.items}
    )
    result = best_response_dynamics(scattered, "best")
    print(f"\nscattered start settles after {result.steps} steps "
          f"({result.status}), {len(result.config.bins_map)} bins")

    packing = build_packing(warmup_family(3), F(1, 9))
    inst = poa_instance(packing)
    print(f"\nanarchy pair from the warmup bin: {len(inst.p.bins_map)} "
          f"optimal bins vs {len(inst.p_prime.bins_map)} at equilibrium")
    print(f"cost ratio {inst.ratio}, equilibrium certified: "
          f"{bool(inst.nash)}")

    family = build_separated_family(2, (2, 4), seed=0)
    sp = spoa_instance(build_packing(family, F(1, 16)), coalition_cap=3)
    print(f"\npower-of-two pair: ratio {sp.ratio}, coalition-proof "
          f"to size {sp.strong.max_coalition_size}: {bool(sp.strong)}")
    # copies of one bin are interchangeable: one coalition per orbit
    print(f"  {len(sp.p_prime.items)} items in {len(sp.p_prime.bins_map)} bins "
          f"of {len(set(sp.p_prime.bins_map.values()))} distinct contents: "
          f"{sp.strong.coalitions_checked} coalition orbits, "
          f"{sp.strong.assignments_checked} gaining assignments, "
          f"{sp.strong.geometry_checks} placement searches")


if __name__ == "__main__":
    main()
