"""Expectation-value estimators, the analytic reference, and CHSH search.

Per trial the outcome product is ``cos 2(a-b) + sign_i * sin 2(a-b) *
e_xy``: a constant scalar channel plus a bivector channel proportional to
the orientation sign.  The estimators therefore reduce the Monte Carlo
average to the exact integer sum of the +1/-1 signs.  That keeps the
scalar mean equal to ``cos 2(a-b)`` to the last bit at any trial count,
and makes merging per-shard sums bit-identical to a single pass, since
integer addition has no rounding.

The sum comes from :func:`~.protocol.handedness_sign_sum`, which streams
the orientation draws in fixed chunks, so memory does not grow with the
trial count.  :func:`sign_sum_plan` splits the trial range into shards of
whole chunks, one per worker thread, with at most one worker per CPU and
per chunk.  Any number of angle pairs share one sign sum:
:func:`joint_estimator` computes it once for all of them, so a scan and a
CHSH evaluation or search each make one sum.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .protocol import (
    SIGN_CHUNK,
    PolarizerAngle,
    handedness_sign_sum,
    handedness_signs,  # noqa: F401  (re-exported; callers look it up here)
    polarizer_axis,
)

__all__ = [
    "CorrelationEstimate",
    "ChshSettings",
    "single_expectation",
    "joint_expectation",
    "joint_expectations",
    "joint_estimator",
    "sign_sum_plan",
    "stream_summary",
    "quantum_reference",
    "chsh_value",
    "chsh_maximize",
]


@dataclass(frozen=True)
class CorrelationEstimate:
    """Componentwise Monte Carlo average of even-element outcomes.

    The scalar and bivector channels are reported separately and never
    re-normalized; ``standard_error`` is the 1/sqrt(n) envelope of the
    +1/-1 sign population that drives the bivector channel (the scalar
    channel is per-trial constant, hence exact).
    """

    scalar_mean: float
    bivector_mean: tuple
    trial_count: int
    standard_error: float

    def __post_init__(self):
        if self.trial_count < 1:
            raise ValueError(f"trial_count must be at least 1, got {self.trial_count}")
        if self.standard_error < 0.0:
            raise ValueError("standard_error must be non-negative")
        mean = tuple(float(c) for c in self.bivector_mean)
        if len(mean) != 3:
            raise ValueError("bivector_mean needs exactly 3 components")
        object.__setattr__(self, "bivector_mean", mean)

    @property
    def bivector_norm(self) -> float:
        byz, bzx, bxy = self.bivector_mean
        return math.sqrt(byz * byz + bzx * bzx + bxy * bxy)


@dataclass(frozen=True)
class ChshSettings:
    """The four polarizer angles of one CHSH evaluation."""

    alpha: PolarizerAngle
    alpha_prime: PolarizerAngle
    beta: PolarizerAngle
    beta_prime: PolarizerAngle


def sign_sum_plan(n: int, threads: int) -> list:
    """``(start, count)`` shards for summing the first ``n`` signs on ``threads`` workers.

    Every shard but the last covers a whole number of :data:`SIGN_CHUNK`
    chunks.  There are ``min(threads, os.cpu_count(), chunks)`` shards, at
    least one, so no request starts more threads than the host has CPUs.
    """
    chunks = -(-n // SIGN_CHUNK)
    shards = max(1, min(threads, os.cpu_count() or 1, chunks))
    per_shard, extra = divmod(chunks, shards)
    plan = []
    start = 0
    for i in range(shards):
        size = (per_shard + (1 if i < extra else 0)) * SIGN_CHUNK
        plan.append((start, min(size, n - start)))
        start += size
    return plan


def stream_summary(n: int, threads: int) -> dict:
    """Shards, chunk size and chunks summed for one sign sum over ``n`` trials."""
    plan = sign_sum_plan(n, threads)
    return {
        "shards": len(plan),
        "chunk_size": SIGN_CHUNK,
        "chunks": sum(-(-count // SIGN_CHUNK) for _, count in plan),
    }


def _summed_signs(seed: int, n: int, threads: int = 1) -> int:
    """Exact sum of the first ``n`` orientation signs for ``seed``.

    Each shard sums its own block of the stream; the totals are integers,
    so the merged result is identical for every shard layout.
    """
    plan = sign_sum_plan(n, threads)
    if len(plan) == 1:
        return handedness_sign_sum(seed, n)
    with ThreadPoolExecutor(max_workers=len(plan)) as pool:
        parts = pool.map(lambda shard: handedness_sign_sum(seed, shard[1], start=shard[0]), plan)
        return sum(parts)


def _mean_sign(n: int, seed: int, threads: int) -> float:
    if n < 1:
        raise ValueError(f"trial count must be at least 1, got {n}")
    return _summed_signs(seed, n, threads) / n


def single_expectation(
    theta: PolarizerAngle, n: int, seed: int, threads: int = 1
) -> CorrelationEstimate:
    """Average one station's outcome over ``n`` orientation samples.

    Outcomes are pure bivectors, so the scalar mean is exactly zero and
    the bivector mean is the mean sign times the polarizer axis; under
    the 50/50 orientation law it decays like 1/sqrt(n).
    """
    mean_sign = _mean_sign(n, seed, threads)
    axis = polarizer_axis(theta)
    return CorrelationEstimate(
        scalar_mean=0.0,
        bivector_mean=(mean_sign * axis.x, mean_sign * axis.y, mean_sign * axis.z),
        trial_count=n,
        standard_error=1.0 / math.sqrt(n),
    )


def joint_estimator(n: int, seed: int, threads: int = 1):
    """Joint estimates over ``n`` shared orientation samples, as a function of two angles.

    The sign sum is computed once, here, for every angle pair.  The scalar
    mean is ``cos 2(alpha-beta)`` at every seed and ``n`` and does not read
    the sum; the bivector mean is the mean sign times ``sin 2(alpha-beta)``.
    """
    mean_sign = _mean_sign(n, seed, threads)

    def estimate(alpha: PolarizerAngle, beta: PolarizerAngle) -> CorrelationEstimate:
        d = 2.0 * (alpha.radians - beta.radians)
        return CorrelationEstimate(
            scalar_mean=math.cos(d),
            bivector_mean=(0.0, 0.0, mean_sign * math.sin(d)),
            trial_count=n,
            standard_error=1.0 / math.sqrt(n),
        )

    return estimate


def joint_expectations(
    alpha: PolarizerAngle, betas, n: int, seed: int, threads: int = 1
) -> list:
    """Joint estimates at ``alpha`` for every angle in ``betas``, from one sign sum."""
    estimate = joint_estimator(n, seed, threads)
    return [estimate(alpha, beta) for beta in betas]


def joint_expectation(
    alpha: PolarizerAngle, beta: PolarizerAngle, n: int, seed: int, threads: int = 1
) -> CorrelationEstimate:
    """Average the outcome product over ``n`` shared orientation samples.

    The one-angle case of :func:`joint_expectations`.
    """
    return joint_expectations(alpha, (beta,), n, seed, threads)[0]


def quantum_reference(alpha: PolarizerAngle, beta: PolarizerAngle) -> float:
    """The quantum-mechanical correlation ``cos 2(alpha - beta)``."""
    return math.cos(2.0 * (alpha.radians - beta.radians))


def chsh_value(settings: ChshSettings, correlation) -> float:
    """Four-setting CHSH combination, minus sign on the primed-primed term."""
    e = correlation
    return abs(
        e(settings.alpha, settings.beta)
        + e(settings.alpha, settings.beta_prime)
        + e(settings.alpha_prime, settings.beta)
        - e(settings.alpha_prime, settings.beta_prime)
    )


# Finest supported grid.  With the analytic correlation, chsh_maximize took
# 0.74-0.89 s at m = 512 and 9.3-10.3 s at m = 1024 grid points (2-vCPU x86-64
# host, numpy 2.4).  The m**3 scan extrapolates from m = 1024 to about 10
# minutes at m = 4096, where the matrix and its two per-column temporaries
# take about 400 MB; m = 4096 itself was not run.
_MAX_GRID = 4096


def chsh_maximize(resolution: float, correlation) -> tuple:
    """Exhaustive CHSH maximum over all angle quadruples on a ``[0, pi)`` grid.

    Every quadruple ``(a, a', b, b')`` of grid angles is covered: for each
    ``(b, b')`` column pair the best ``a`` and ``a'`` are found by exact
    row reductions over the precomputed correlation matrix, which gives
    the same maximum as enumerating all ``m**4`` quadruples at ``m**3``
    cost.  Returns the maximizing settings and the value.
    """
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"grid step must be positive and finite, got {resolution!r} rad")
    points = math.pi / resolution - 1e-9  # inf when the step is subnormal
    if points > _MAX_GRID:
        raise ValueError(
            f"grid step {resolution:g} rad needs more than {_MAX_GRID} grid points, "
            "the finest supported grid"
        )
    m = max(math.ceil(points), 1)
    thetas = [k * resolution for k in range(m)]
    angles = [PolarizerAngle(t) for t in thetas]
    matrix = np.empty((m, m))
    for i, a in enumerate(angles):
        row = matrix[i]
        for j, b in enumerate(angles):
            row[j] = correlation(a, b)

    best_value = -math.inf
    best = (0, 0, 0, 0)
    for bp in range(m):
        column = matrix[:, bp : bp + 1]
        plus = matrix + column  # [a, b] -> E(a,b) + E(a,b')
        minus = matrix - column  # [a', b] -> E(a',b) - E(a',b')
        pos = plus.max(axis=0) + minus.max(axis=0)
        neg = -(plus.min(axis=0) + minus.min(axis=0))
        b_pos = int(np.argmax(pos))
        b_neg = int(np.argmax(neg))
        if pos[b_pos] > best_value:
            b = b_pos
            best_value = float(pos[b])
            best = (int(np.argmax(plus[:, b])), int(np.argmax(minus[:, b])), b, bp)
        if neg[b_neg] > best_value:
            b = b_neg
            best_value = float(neg[b])
            best = (int(np.argmin(plus[:, b])), int(np.argmin(minus[:, b])), b, bp)

    ia, iap, ib, ibp = best
    settings = ChshSettings(
        alpha=angles[ia], alpha_prime=angles[iap], beta=angles[ib], beta_prime=angles[ibp]
    )
    return settings, chsh_value(settings, correlation)
