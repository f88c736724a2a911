"""Polarization correlations from a shared orientation hidden variable.

Each trial draws one orientation for the whole algebra; both stations
compute their bivector-valued outcome locally from it and their own
polarizer angle.  The scalar channel of the averaged outcome product
equals cos 2(alpha - beta) exactly, while the bivector channel decays
like 1/sqrt(n).

Run with: python3 demos/03_polarization_correlations.py
"""

import math

from threesphere import (
    PolarizerAngle,
    joint_expectation,
    quantum_reference,
    run_trials,
    single_expectation,
)

alpha = PolarizerAngle.from_degrees(22.5)
beta = PolarizerAngle.from_degrees(0.0)

# A handful of raw trials, one column per quantity and one row per trial:
# outcomes are unit bivectors, and the product of each pair lands on the
# same circle inside the 3-sphere.
trials = run_trials(alpha, beta, n=5, seed=1)
for i, (sign, a, product) in enumerate(zip(trials.signs, trials.outcome_a, trials.product)):
    print(
        f"trial {i}: orientation {sign:+d}, "
        f"A = {tuple(a.tolist())}, product = {tuple(product.tolist())}"
    )

# One arm alone averages to nothing.
single = single_expectation(alpha, 10**6, seed=2)
print(f"\nsingle-arm estimate norm at n=1e6: {single.bivector_norm:.2e}")

# The joint expectation across a sweep of angle differences reproduces
# the quantum curve, Tr[rho P(a) (x) P(b)] for |Phi+>, in the scalar channel.
print(f"\n{'diff':>6} {'scalar mean':>14} {'quantum ref':>14} {'bivector norm':>14}")
for diff in range(0, 181, 15):
    a = PolarizerAngle.from_degrees(diff)
    b = PolarizerAngle.from_degrees(0.0)
    estimate = joint_expectation(a, b, 10**4, seed=diff)
    print(
        f"{diff:>5}o {estimate.scalar_mean:>14.10f} "
        f"{quantum_reference(a, b):>14.10f} {estimate.bivector_norm:>14.2e}"
    )

worst = max(
    abs(
        joint_expectation(PolarizerAngle.from_degrees(d), beta, 100, seed=d).scalar_mean
        - math.cos(2.0 * math.radians(d))
    )
    for d in range(0, 181)
)
print(f"\nworst scalar deviation over 181 one-degree steps: {worst:.3e}")
