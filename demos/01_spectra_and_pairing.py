"""Koopman spectra of the four classical systems, and an exact pairing.

The composition operator of a measure-preserving map acts on Fourier or
Fourier-Walsh basis functions by permuting indices and multiplying unit
phases.  That makes its spectrum computable symbolically: each system
below gets a descriptor (point part, Lebesgue part), and two systems
whose descriptors match can be given an explicit unitary intertwiner,
built from the two descriptors by pairing proper modes and chain
generators.  Each descriptor shows, per label sector, the N = A - I and b
its Lebesgue multiplicity is read from.  The intertwining
W U = V W is decided for the whole space by a handful of polynomial
identities, one set per label sector, printed below.  Each operator's
action on labels is read off the map itself: the demo prints every
kind's map record beside the table derived from it.

Run:  python demos/01_spectra_and_pairing.py
"""

from ergolab import (
    KOOPMAN_TABLE,
    BernoulliSpec,
    SQRT2_MINUS_1,
    SystemSpec,
    build_intertwiner,
    point_spectrum_groups_equal,
    spectrum_of,
    verify_intertwiner,
)
from ergolab.systems import MAPS

GAMMA = SQRT2_MINUS_1  # sqrt(2) - 1, a quadratic irrational handled exactly


def main() -> None:
    systems = [
        SystemSpec.rotation(GAMMA),
        SystemSpec.skew(GAMMA),
        SystemSpec.shift(BernoulliSpec.fair_coin()),
        SystemSpec.product(GAMMA, BernoulliSpec.fair_coin()),
    ]

    print("=== spectral descriptors ===")
    descriptors = {spec.kind: spectrum_of(spec) for spec in systems}
    for spec in systems:
        d = descriptors[spec.kind]
        gens = ", ".join(str(g) for g in d.point_generators) or "none"
        print(f"{spec.label():32s} tag={d.tag:16s} "
              f"point generators: {gens}; Lebesgue multiplicity: {d.lebesgue_multiplicity}")
        for sector, N, b, count in d.multiplicity_witness:
            print(f"  {sector:8s} N = A - I = {N}, b = {b}: {count} chains")

    print()
    print("=== proper-value groups ===")
    # The point spectrum of a rotation is the subgroup {e(k gamma)}; two
    # rotations are spectrally isomorphic iff the subgroups coincide.
    for other, label in [
        (GAMMA.one_minus(), "1 - gamma"),
        (GAMMA, "gamma itself"),
    ]:
        cmp = point_spectrum_groups_equal(GAMMA, other)
        print(f"gamma vs {label:13s}: equal={cmp.equal}  ({cmp.detail})")

    print()
    print("=== intertwining the skew map with the product ===")
    skew = SystemSpec.skew(GAMMA)
    prod = SystemSpec.product(GAMMA, BernoulliSpec.fair_coin())
    # the intertwiner reads the descriptors and the angles' comparison,
    # decided once above, instead of deciding them again
    groups = point_spectrum_groups_equal(skew.gamma, prod.gamma)
    spectra = (descriptors["skew"], descriptors["product"])
    pairing = build_intertwiner(skew, prod, 16, spectra, groups)
    check = verify_intertwiner(pairing)
    print(f"identities decided: {check.checked}, failed: {check.mismatches}")
    print("(a = skew map, b = product; unknowns: chain (m, r) or (l, m),")
    print(" position j, proper mode k; phases as exact gamma-multiples)")
    for identity in check.identities:
        print(f"  {identity}")
    print()
    print("=== each map record (M, t, s) and the Koopman table read off it ===")
    print("(x -> M x + t gamma on the torus, (R w)_p = w_(p+s) on sequences;")
    print(" a label x goes to A x + b with phase e((c . x) gamma))")
    for kind, record in MAPS.items():
        print(f"{kind}: {record}")
        for sector, action in KOOPMAN_TABLE[kind].items():
            print(f"  {sector:8s} A={action.A} b={action.b} c={action.c}")
    print()
    print("Both operators are unitarily equivalent -- yet the demo of the")
    print("tower invariant (02) shows the two systems cannot be conjugate.")


if __name__ == "__main__":
    main()
