"""Expectation-value estimators, the quantum reference, and CHSH search.

Per trial the outcome product is ``cos 2(a-b) + sign_i * sin 2(a-b) *
e_xy``: a constant scalar channel plus a bivector channel proportional to
the orientation sign.  The estimators therefore reduce the Monte Carlo
average to the exact integer sum of the +1/-1 signs.  That keeps the
scalar mean equal to ``cos 2(a-b)`` to the last bit at any trial count,
and makes merging per-thread sums bit-identical to a single pass, since
integer addition has no rounding.

The sum is :func:`~.protocol.handedness_sign_sum`, which streams the
orientation draws in chunks, so memory does not grow with the trial count,
and splits the chunks across the estimators' ``threads``, at most one per
CPU and per chunk; the estimate is the same for every ``threads``.  Given
radian arrays, :func:`joint_expectation` makes one sign sum for every
angle pair, so a scan makes one sum.  The check on the model,
:func:`quantum_reference`, comes from the photon state; ``chsh``
evaluates it.

A correlation is a function of two radian arrays, called once:
:func:`chsh_value` calls it on the column ``[alpha, alpha']`` and the row
``[beta, beta']``, and :func:`chsh_maximize` fills the grid's correlation
matrix with one call, then searches it one of two ways.  On a
grid that wraps around the half turn, a shift-invariant correlation such
as ``cos 2(a-b)`` gives a circulant matrix; the search checks that
property in the matrix itself and then fixes one setting, which costs
``O(m**2)`` for ``m`` grid points.  Any other matrix gets the exhaustive
``O(m**3)`` scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .algebra import _columns
from .protocol import (
    PolarizerAngle,
    _radians,
    handedness_sign_sum,
    # Unused here; kept only because perfbench's traced mode wraps the stream at
    # this name (ROADMAP item 11).
    handedness_signs,  # noqa: F401
    polarizer_axis,
)

__all__ = [
    "CorrelationEstimate",
    "ChshSettings",
    "single_expectation",
    "joint_expectation",
    "PHI_PLUS",
    "quantum_reference",
    "chsh_value",
    "chsh_maximize",
]


@dataclass(frozen=True)
class CorrelationEstimate:
    """Componentwise Monte Carlo average of even-element outcomes.

    The scalar channel is ``cos 2(alpha-beta)`` by construction, hence exact
    and independent of the draws.  The bivector channel is the mean +1/-1 sign
    times ``sin 2(alpha-beta)``; ``standard_error`` is its envelope
    ``1/sqrt(trial_count)``.  Each channel is a float or an array.
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


def single_expectation(theta, n: int, seed: int, threads: int = 1) -> CorrelationEstimate:
    """Average one station's outcome over ``n`` orientation samples.

    Outcomes are pure bivectors, so the scalar mean is exactly zero and
    the bivector mean is the mean sign times the polarizer axis; under
    the 50/50 orientation law it decays like 1/sqrt(n).  As in
    :func:`joint_expectation`, a radian array gives array channels.
    """
    if n < 1:
        raise ValueError(f"trial count must be at least 1, got {n}")
    mean_sign = handedness_sign_sum(seed, n, threads=threads) / n
    x, y, z = _columns(polarizer_axis(theta))
    return CorrelationEstimate(
        scalar_mean=0.0, bivector_mean=(mean_sign * x, mean_sign * y, mean_sign * z), trial_count=n
    )


def joint_expectation(alpha, beta, n: int, seed: int, threads: int = 1) -> CorrelationEstimate:
    """Average the outcome product over ``n`` shared orientation samples.

    Each call makes one sign sum, which only the bivector mean, the mean
    sign times ``sin 2(alpha-beta)``, reads.  The scalar mean is
    ``cos 2(alpha-beta)`` at every seed and ``n``.  The angles are two
    :class:`PolarizerAngle`, which give float channels, or two radian
    arrays, which give one estimate whose channels are arrays of their
    broadcast shape; pass arrays to share the sum across angle pairs.
    ``threads`` goes to :func:`~.protocol.handedness_sign_sum`.
    """
    if n < 1:
        raise ValueError(f"trial count must be at least 1, got {n}")
    mean_sign = handedness_sign_sum(seed, n, threads=threads) / n
    d = 2.0 * (_radians(alpha) - _radians(beta))
    return CorrelationEstimate(
        scalar_mean=np.cos(d),
        bivector_mean=(0.0, 0.0, mean_sign * np.sin(d)),
        trial_count=n,
    )


_PAULI = np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]])  # sigma_z, sigma_x


def _correlation_tensor(rho):
    """``T[j, k] = Tr[rho (sigma_j (x) sigma_k)]`` for ``sigma = (sigma_z, sigma_x)``."""
    return np.einsum("acbd,jba,kdc->jk", rho.reshape(2, 2, 2, 2), _PAULI, _PAULI)


# The photon pair's polarization state |Phi+> = (|HH> + |VV>)/sqrt(2) over
# |HH>, |HV>, |VH>, |VV>, in exact halves so that its tensor is exactly the identity.
PHI_PLUS = 0.5 * np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0])
_PHI_PLUS_TENSOR = _correlation_tensor(PHI_PLUS)


def quantum_reference(alpha, beta):
    """The quantum correlation ``Tr[rho P(alpha) (x) P(beta)]`` of the state :data:`PHI_PLUS`.

    ``P(theta) = cos 2theta sigma_z + sin 2theta sigma_x``, so it is the
    bilinear form ``u(alpha)^T T u(beta)`` of ``u(theta) = (cos 2theta,
    sin 2theta)``: ``cos 2(alpha - beta)`` up to rounding, from one cosine
    and one sine per angle.  A float for two :class:`PolarizerAngle`; for
    radian arrays, the array of their broadcast shape.
    """
    (tzz, tzx), (txz, txx) = _PHI_PLUS_TENSOR
    a, b = 2.0 * _radians(alpha), 2.0 * _radians(beta)
    cos_b, sin_b = np.cos(b), np.sin(b)
    result = np.cos(a) * (tzz * cos_b + tzx * sin_b)
    result += np.sin(a) * (txz * cos_b + txx * sin_b)
    return _channel(result)


def _chsh_terms(settings: ChshSettings, correlation):
    """The ``(2, 2)`` terms ``E[i, j]`` of ``[alpha, alpha']`` by ``[beta, beta']``, one call."""
    column = np.array([[settings.alpha.radians], [settings.alpha_prime.radians]])
    row = np.array([[settings.beta.radians, settings.beta_prime.radians]])
    e = np.empty((2, 2))
    e[...] = correlation(column, row)
    return e


def _chsh(e) -> float:
    """``|E[a,b] + E[a,b'] + E[a',b] - E[a',b']|`` of the ``(2, 2)`` array ``e``."""
    return float(abs(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]))


def chsh_value(settings: ChshSettings, correlation) -> float:
    """Four-setting CHSH combination, minus sign on the primed-primed term.

    ``correlation`` is called once, on the ``(2, 1)`` radian column ``[alpha,
    alpha']`` and the ``(1, 2)`` row ``[beta, beta']``; its result broadcasts to ``(2, 2)``.
    """
    return _chsh(_chsh_terms(settings, correlation))


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
            best_value = float(pos[b_pos])
            best = (int(np.argmax(plus[:, b_pos])), int(np.argmax(minus[:, b_pos])), b_pos, bp)
        if neg[b_neg] > best_value:
            best_value = float(neg[b_neg])
            best = (int(np.argmin(plus[:, b_neg])), int(np.argmin(minus[:, b_neg])), b_neg, bp)
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
    Returns the maximizing settings and their value, combined from the
    matrix entries as :func:`chsh_value` combines its four terms.
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
    return settings, _chsh(matrix[np.ix_((ia, iap), (ib, ibp))])
