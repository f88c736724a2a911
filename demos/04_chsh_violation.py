"""CHSH at the classic four settings, by analytic value, grid search, and
the model's scalar channel.

The last of these reads only the scalar mean of one ``joint_expectation``
call, which is ``cos 2(a-b)`` by construction: it is exact, reads no
orientation sign, and so is no Monte Carlo estimate.

Run with: python3 demos/04_chsh_violation.py
"""

import math
import time

from threesphere import (
    ChshSettings,
    PolarizerAngle,
    chsh_maximize,
    chsh_value,
    joint_expectation,
    quantum_reference,
)


def deg(value):
    return PolarizerAngle.from_degrees(value)


TSIRELSON = 2.0 * math.sqrt(2.0)

# The quadruple that maximizes the combination for cos 2(a-b).
settings = ChshSettings(alpha=deg(0.0), alpha_prime=deg(-45.0), beta=deg(-22.5), beta_prime=deg(22.5))

# The quantum reference evaluates Tr[rho P(a) (x) P(b)] for the |Phi+> photon state.
analytic = chsh_value(settings, quantum_reference)
print(f"analytic CHSH at (0, -45, -22.5, 22.5): {analytic:.12f}")
print(f"quantum bound 2*sqrt(2):                {TSIRELSON:.12f}")

# A search over every quadruple on a quarter-degree grid finds the same
# maximum.  The grid wraps and the reference is shift-invariant, so fixing
# one setting (the O(m**2) shift search) still covers all quadruples.
started = time.perf_counter()
best, value = chsh_maximize(math.radians(0.25), quantum_reference)
elapsed = time.perf_counter() - started
print(
    f"\ngrid maximum {value:.12f} in {elapsed:.1f}s at "
    f"({best.alpha.degrees:.6g}, {best.alpha_prime.degrees:.6g}, "
    f"{best.beta.degrees:.6g}, {best.beta_prime.degrees:.6g}) degrees"
)

# The model's scalar channel: chsh_value calls the correlation once, on
# radian arrays, so one joint_expectation covers all four settings and makes
# one sign sum of a million trials.  Its scalar mean is cos 2(a-b) in every
# trial and reads none of those signs, so it is exact at any seed.
def scalar_channel(alpha, beta):
    return joint_expectation(alpha, beta, 10**6, seed=99).scalar_mean


channel = chsh_value(settings, scalar_channel)
print(f"\nmodel scalar-channel CHSH (exact, reads no sign): {channel:.12f}")
print(f"gap to the bound: {abs(channel - TSIRELSON):.2e}")

# For contrast: settings with repeated rows can never beat 2.
flat = ChshSettings(deg(10.0), deg(10.0), deg(50.0), deg(50.0))
print(f"\ndegenerate settings stay classical: {chsh_value(flat, quantum_reference):.6f} <= 2")
