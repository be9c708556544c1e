"""The proper-function tower, decided exactly, and the residual search
that corroborates it.

Proper functions of a factor map can seed new proper functions one level
up: solving g(Sx) = delta * e(k u) * g(x) with |delta| = 1 over functions
measurable in the extended system.  Expanding g in characters, the
equation carries each coefficient along an index map K_k on character
labels, so a solution exists exactly when K_k has a finite orbit.  That
map is affine, and integer linear algebra decides it for every k: the
skew map's tower grows past the proper functions, the rotation-times-coin
product's stops.  A least-squares search over a fixed band of candidate
functions counts the cycles and free paths of the same map on that band,
reads its minimum off them in closed form, and must agree.

Run:  python demos/02_tower_and_residuals.py
"""

from ergolab import (
    BernoulliSpec,
    SQRT2_MINUS_1,
    SystemSpec,
    certify_product_tower,
    compute_tower,
    decide_finite_orbits,
    quasi_eigen_residual_search,
    stabilization_depth,
    towers_distinguish,
)

GAMMA = SQRT2_MINUS_1


def describe(coset) -> str:
    if coset is None:
        return "no k"
    base, step = coset
    if step == 1:
        return "every k"
    return f"k = {base}" if step == 0 else f"k = {base} mod {step}"


def main() -> None:
    skew = SystemSpec.skew(GAMMA)
    prod = SystemSpec.product(GAMMA, BernoulliSpec.fair_coin())

    print("=== the skew tower (exact) ===")
    levels = compute_tower(skew, 4)
    for level in levels:
        print(f"  level {level.depth}: characters {level.characters}")
    print(f"stabilizes at depth {stabilization_depth(levels)}")
    print("Level 2 holds exactly the modes e(k u); level 3 adds e(m v):")
    print("the tower grows past the proper functions, then fills the lattice.")

    print()
    print("=== the exact decision: finite orbits of K_k ===")
    for kind in ("skew", "product"):
        decision = decide_finite_orbits(kind)
        for sector, coset in decision.sectors.items():
            print(f"  {kind:7s} {sector:8s} sector: finite orbits for {describe(coset)}")
        print(f"  {kind:7s} tower grows past the proper functions: {decision.gap}")
    print("skew: K_k fixes every label (l, k), witnessed by e(l u) e(k v);")
    print("product: only k = 0, the proper functions e(l u).")

    print()
    print("=== residual search over the product system ===")
    print("minimize || g(Sx) - delta e(k u) g(x) || over unit vectors g:")
    print("0 if K_k closes a cycle on the truncated basis, else the closed form")
    print("sqrt(2 - 2 cos(pi/(L+1))) at the longest free path L")
    print("(u-band fixed at 4; enlarging the window must not shrink anything)")
    for k in (0, 1, 2):
        for truncation in (8, 16):
            report = quasi_eigen_residual_search(prod, k, truncation)
            longest = max((n for n, _ in report.path_lengths), default=0)
            print(f"  k={k}  window={truncation:2d}: residual {report.residual:.9f} "
                  f"({report.cycles} cycles, longest path {longest})")
    print("k=0 is solvable (the constants' self-loops); k != 0 sticks at the")
    print("residual of the band's longest free path, a property of the band,")
    print("not the system.")

    print()
    print("=== corroboration and the verdict ===")
    cert = certify_product_tower(prod, truncation=8)
    print(f"reference residual r0 = {cert.r0:.6f} (closed form); every search")
    print(f"agrees with the decision; new level found: {cert.new_level_found}")
    result = towers_distinguish(skew, prod, truncation=8)
    print(f"tower grows (skew): {result.gap_a}; tower grows (product): {result.gap_b}")
    print(f"verdict: {result.verdict}")
    print()
    print("Spectrally identical systems, distinguished by a spatial invariant:")
    print("no conjugacy can map one to the other.")


if __name__ == "__main__":
    main()
