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

:func:`chsh_maximize` fills the grid's correlation matrix with one call of
the correlation on radian arrays, then searches it one of two ways.  On a
grid that wraps around the half turn, a shift-invariant correlation such
as ``cos 2(a-b)`` gives a circulant matrix; the search checks that
property in the matrix itself and then fixes one setting, which costs
``O(m**2)`` for ``m`` grid points.  Any other matrix gets the exhaustive
``O(m**3)`` scan.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .protocol import (
    SIGN_CHUNK,
    PolarizerAngle,
    _radians,
    handedness_sign_sum,
    handedness_signs,  # noqa: F401  (re-exported; callers look it up here)
    polarizer_axis,
)

__all__ = [
    "CorrelationEstimate",
    "ChshSettings",
    "single_expectation",
    "joint_expectation",
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

    The scalar channel is ``cos 2(alpha-beta)`` by construction, hence exact;
    ``chsh --n`` reads only it, so its value is ``--analytic``'s to the bit; no
    ``chsh`` output column shows the sign sum.  The bivector channel is the
    mean +1/-1 sign times ``sin 2(alpha-beta)``; ``standard_error`` is its
    envelope ``1/sqrt(trial_count)``.  Each channel is a float or an array.
    """

    scalar_mean: float
    bivector_mean: tuple
    trial_count: int

    def __post_init__(self):
        if self.trial_count < 1:
            raise ValueError(f"trial_count must be at least 1, got {self.trial_count}")
        mean = tuple(map(_channel, self.bivector_mean))
        if len(mean) != 3:
            raise ValueError("bivector_mean needs exactly 3 components")
        object.__setattr__(self, "scalar_mean", _channel(self.scalar_mean))
        object.__setattr__(self, "bivector_mean", mean)

    @property
    def standard_error(self) -> float:
        return 1.0 / math.sqrt(self.trial_count)

    @property
    def bivector_norm(self):
        byz, bzx, bxy = self.bivector_mean
        return _channel(np.sqrt(byz * byz + bzx * bzx + bxy * bxy))


def _channel(value):
    """A float for one angle pair, a float array for a batch of pairs."""
    if isinstance(value, np.ndarray) and value.ndim:
        return value.astype(float, copy=False)
    return float(value)


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
    )


def joint_estimator(n: int, seed: int, threads: int = 1):
    """Joint estimates over ``n`` shared orientation samples, as a function of two angles.

    The sign sum is computed once, here, for every angle pair; only the
    bivector mean, the mean sign times ``sin 2(alpha-beta)``, reads it.  The
    scalar mean is ``cos 2(alpha-beta)`` at every seed and ``n``, and is all
    that ``chsh --n`` reads.  The angles are two :class:`PolarizerAngle` or
    two radian arrays, which give one estimate whose channels are arrays.
    """
    mean_sign = _mean_sign(n, seed, threads)

    def estimate(alpha, beta) -> CorrelationEstimate:
        d = 2.0 * (_radians(alpha) - _radians(beta))
        return CorrelationEstimate(
            scalar_mean=np.cos(d),
            bivector_mean=(0.0, 0.0, mean_sign * np.sin(d)),
            trial_count=n,
        )

    return estimate


def joint_expectation(
    alpha: PolarizerAngle, beta: PolarizerAngle, n: int, seed: int, threads: int = 1
) -> CorrelationEstimate:
    """Average the outcome product over ``n`` shared orientation samples.

    The one-pair case of :func:`joint_estimator`, which makes its own sign
    sum; call that once instead to share the sum across angle pairs.
    """
    return joint_estimator(n, seed, threads)(alpha, beta)


def quantum_reference(alpha, beta):
    """The quantum-mechanical correlation ``cos 2(alpha - beta)``.

    A float for two :class:`PolarizerAngle`; for radian arrays, the array
    of their broadcast shape.
    """
    return _channel(np.cos(2.0 * (_radians(alpha) - _radians(beta))))


def chsh_value(settings: ChshSettings, correlation) -> float:
    """Four-setting CHSH combination, minus sign on the primed-primed term."""
    e = correlation
    return abs(
        e(settings.alpha, settings.beta)
        + e(settings.alpha, settings.beta_prime)
        + e(settings.alpha_prime, settings.beta)
        - e(settings.alpha_prime, settings.beta_prime)
    )


# Finest supported grid.  With the analytic correlation on a 2-vCPU x86-64
# host (numpy 2.4), the shift search took 0.03-0.06 s at m = 1024 grid points
# and 0.7-1.25 s at m = 4096, with a tracemalloc peak of 403 MB: the matrix
# and its two (m, m) buffers.
_MAX_GRID = 4096

# Finest grid the exhaustive O(m**3) scan accepts.  On the same host it took
# 0.75 s at m = 512, 1.75 s at m = 724 and 5.3 s at m = 1024; a grid of
# 4,082 points would run for minutes.
_MAX_EXHAUSTIVE = 1024

# Largest |M[i, j] - M[(i - j) % m, 0]| at which the search treats the
# correlation matrix M as circulant.  Each of the four terms of the settings
# it then picks is off from the circulant model by at most this much, so
# their value lies within 8 times it of the exhaustive maximum.  Exact
# equality would not do: rolled rows of cos 2(a-b) differ in the last bit.
_SHIFT_TOLERANCE = 1e-13


def _circulant(matrix, scratch) -> bool:
    """Whether ``matrix[i, j]`` is ``matrix[(i - j) % m, 0]`` within :data:`_SHIFT_TOLERANCE`.

    Uses ``scratch``, an ``(m, m)`` float array, for the differences.
    """
    m = len(matrix)
    flipped = np.roll(matrix[::-1, 0], 1)  # flipped[t] = matrix[-t % m, 0]
    # Row i of the window view is flipped rolled by i: [i, j] -> matrix[(i - j) % m, 0].
    shifted = sliding_window_view(np.concatenate((flipped, flipped)), m)[m:0:-1]
    np.subtract(matrix, shifted, out=scratch)
    return bool(np.abs(scratch, out=scratch).max() <= _SHIFT_TOLERANCE)


def _column_search(matrix, columns, plus, minus) -> tuple:
    """Grid indices ``(a, a', b, b')`` of the largest CHSH value with ``b'`` in ``columns``.

    For each ``b'`` column the best ``a`` and ``a'`` for every ``b`` are
    exact row reductions, so ``columns = range(m)`` covers all ``m**4``
    quadruples at ``m**3`` cost.  ``plus`` and ``minus`` are ``(m, m)``
    float buffers, overwritten for every column.
    """
    best_value = -math.inf
    best = (0, 0, 0, 0)
    for bp in columns:
        column = matrix[:, bp : bp + 1]
        np.add(matrix, column, out=plus)  # [a, b] -> E(a,b) + E(a,b')
        np.subtract(matrix, column, out=minus)  # [a', b] -> E(a',b) - E(a',b')
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
    return best


def _exhaustive(m: int) -> range:
    """All ``m`` ``b'`` columns, for the exhaustive scan; refused above :data:`_MAX_EXHAUSTIVE`."""
    if m > _MAX_EXHAUSTIVE:
        raise ValueError(
            f"a grid of {m} points needs the exhaustive scan, "
            f"which takes at most {_MAX_EXHAUSTIVE} grid points"
        )
    return range(m)


def chsh_maximize(resolution: float, correlation) -> tuple:
    """CHSH maximum over all angle quadruples on a ``[0, pi)`` grid.

    ``correlation(a, b)`` is called once, on the radian arrays
    ``theta[:, None]`` and ``theta[None, :]`` of the ``m`` grid angles,
    and its result is broadcast to the ``(m, m)`` matrix
    ``M[i, j] = E(theta_i, theta_j)``.  The search then takes one of two
    paths, chosen from the matrix alone:

    * Shift search, ``O(m**2)``: when the grid wraps (``m * resolution``
      is ``pi`` within ``1e-9 * pi``) and ``M`` is circulant within
      :data:`_SHIFT_TOLERANCE`.  Moving all four settings by one grid step
      then keeps the value, so fixing ``b' = 0`` loses no maximum.
    * Exhaustive scan, ``O(m**3)``: every other matrix, such as an
      asymmetric correlation or a step that does not divide the half turn.
      A :class:`ValueError` refuses it above :data:`_MAX_EXHAUSTIVE` grid
      points, before the matrix is built when the grid does not wrap.

    Both find the largest value, the shift search to within
    ``8 * _SHIFT_TOLERANCE``; on ties they may pick different settings.
    Returns the maximizing settings and the value, summed from the matrix
    in the order of :func:`chsh_value`.
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
    wraps = abs(m * resolution - math.pi) <= 1e-9 * math.pi
    columns = None if wraps else _exhaustive(m)  # refused before the matrix is built
    thetas = np.arange(m) * resolution
    matrix = np.asarray(correlation(thetas[:, None], thetas[None, :]), dtype=float)
    matrix = np.broadcast_to(matrix, (m, m))
    plus, minus = np.empty((m, m)), np.empty((m, m))
    if columns is None:
        columns = range(1) if _circulant(matrix, plus) else _exhaustive(m)
    ia, iap, ib, ibp = _column_search(matrix, columns, plus, minus)
    settings = ChshSettings(*(PolarizerAngle(thetas[i]) for i in (ia, iap, ib, ibp)))
    value = abs(matrix[ia, ib] + matrix[ia, ibp] + matrix[iap, ib] - matrix[iap, ibp])
    return settings, float(value)
