"""Entropy: the invariant that separates spectrally identical shifts.

The fair-coin shift and the uniform 4-symbol shift have identical
spectra (countable Lebesgue plus a simple constant), so no spectral
quantity tells them apart.  Their entropies ln 2 and ln 4 do.  Exact
values are computed in high-precision arithmetic and rounded once; a
block of n independent symbols has entropy n H_1, so the one-step
entropy is also the rate at every block length.  The sampled estimator
scores exact refined-cell measures along simulated itineraries, so it
is unbiased at any sample size.

Run:  python demos/03_entropy.py
"""

import math

from ergolab import (
    BernoulliSpec,
    PartitionSpec,
    SystemSpec,
    bernoulli_entropy,
    entropy_classifier,
    partition_refine_entropy,
    spawn_rngs,
)

FAIR = BernoulliSpec.fair_coin()
UNIFORM4 = BernoulliSpec((0.25, 0.25, 0.25, 0.25), (0, 1, 2, 3))
BIASED = BernoulliSpec((0.25, 0.75), (0, 1))


def main() -> None:
    print("=== exact entropies ===")
    for bern, name in ((FAIR, "fair coin"), (UNIFORM4, "uniform 4"), (BIASED, "1:3 coin")):
        h = bernoulli_entropy(bern)
        print(f"  {name:10s} H = {h:.15f} nats = {h / math.log(2):.6f} bits")
    print(f"  fair coin equals ln 2 exactly:  {bernoulli_entropy(FAIR) == math.log(2)}")
    print(f"  uniform 4 equals ln 4 exactly:  {bernoulli_entropy(UNIFORM4) == math.log(4)}")

    print()
    print("=== sampled refinement estimates ===")
    rng_fair, rng_four, rng_biased = spawn_rngs(1, 3)
    cases = [
        (FAIR, rng_fair, math.log(2), "fair coin"),
        (UNIFORM4, rng_four, math.log(4), "uniform 4"),
        (BIASED, rng_biased, bernoulli_entropy(BIASED), "1:3 coin"),
    ]
    for bern, rng, exact, name in cases:
        est = partition_refine_entropy(
            SystemSpec.shift(bern), PartitionSpec.time_zero(bern),
            n=10, samples=200_000, rng=rng,
        )
        rel = abs(est.value - exact) / exact
        print(f"  {name:10s} estimate {est.value:.9f}  "
              f"(exact {exact:.9f}, rel. err {rel:.2e}, method {est.method})")

    print()
    print("=== the classifier ===")
    verdict = entropy_classifier(FAIR, UNIFORM4)
    print(f"  entropies: {verdict.entropy_a:.6f} vs {verdict.entropy_b:.6f}")
    print(f"  spectral verdict: {verdict.spectral}")
    print(f"  spatial verdict:  {verdict.spacial}")


if __name__ == "__main__":
    main()
