"""Membership tests and constructions on the 3-sphere and its equator.

Unit even elements form the 3-sphere, which is closed under
multiplication; the pure unit bivectors form its equatorial 2-sphere,
which is not.  This module provides the membership predicates, a
demonstration of both facts, the factorization of any 3-sphere point
into an arbitrary number of unit factors, and the stereographic
projection between the 2-sphere (minus its north pole) and the plane.
The constructions also take stacked ``(..., 3)`` sphere, ``(..., 2)``
plane and ``(N, 4)`` even-element rows; a dataclass among rows is one row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import RIGHT_HANDED, EvenElement, _columns, _result, dual_bivector, even_product
from .protocol import stream_uniform

__all__ = [
    "NorthPoleError",
    "S2Point",
    "PlanePoint",
    "is_unit_s3",
    "is_equatorial",
    "factorize_s3_point",
    "s2_nonclosure_witness",
    "stereographic_project",
    "stereographic_unproject",
]


class NorthPoleError(ValueError):
    """Raised for the one point the stereographic projection cannot map."""


@dataclass(frozen=True)
class S2Point:
    """Point on the unit 2-sphere."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        r2 = self.x * self.x + self.y * self.y + self.z * self.z
        if not math.isfinite(r2) or abs(r2 - 1.0) > 1e-12:
            raise ValueError(f"({self.x}, {self.y}, {self.z}) is not on the unit sphere")

    @classmethod
    def from_direction(cls, x: float, y: float, z: float) -> "S2Point":
        n = math.sqrt(x * x + y * y + z * z)
        if n == 0.0:
            raise ValueError("cannot project the zero vector onto the sphere")
        return cls(x / n, y / n, z / n)


@dataclass(frozen=True)
class PlanePoint:
    """Point of the projection plane."""

    u: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError("plane coordinates must be finite")


def _check_tol(tol: float) -> None:
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")


def is_unit_s3(q: EvenElement, tol: float = 1e-12) -> bool:
    """True when ``q`` lies on the unit 3-sphere within ``tol``."""
    _check_tol(tol)
    return abs(q.norm_squared() - 1.0) <= tol


def is_equatorial(q: EvenElement, tol: float = 1e-12) -> bool:
    """True for unit elements with (near) zero scalar part: pure unit bivectors."""
    _check_tol(tol)
    return is_unit_s3(q, tol) and abs(q.s) <= tol


# Pairs one round of a disk draw reads at most: 2**13 words, 64 KiB, and its
# inside points are staged in at most as much again.  The verify topology suite at
# 10**4 samples took the same time with rounds of 2**12 to 2**14 pairs and of the
# whole draw, and about a tenth longer with rounds of 2**11 (BENCH_in_place_even.json).
_DISK_ROUND = 1 << 12

# The lane of its seed that factorize_s3_point draws its factors from.
_FACTOR_LANE = 1


def _disk_points(seed: int, lane: int, planes: np.ndarray) -> None:
    """Fills the ``(x, y)`` row pairs of ``planes`` with ``lane``'s points inside the unit disk.

    Pair ``j`` of the lane, its words ``2j`` and ``2j + 1`` taken as ``2u - 1``,
    is a point of the square (-1, 1)^2; about pi/4 of them fall inside the
    open disk.  ``planes`` is ``(2h, n)``: ``h`` pairs of rows ``(x, y)`` of ``n``
    points each.  The ``k``-th point inside goes to column ``k // h`` of pair ``k
    % h``, for the first ``h * n`` points.  Each round reads a third more pairs
    than points are missing, plus 16, and at most :data:`_DISK_ROUND`; one row
    gather of the round's ``(size, 2)`` view takes its inside points in draw
    order, and every ``h``-th of them, from the first one pair ``j`` is owed,
    goes to pair ``j``.  The draw is bounded: past ``2hn + 64`` pairs, where
    fewer than half of them fell inside, it raises ``ArithmeticError``.
    """
    ways = len(planes) // 2
    count = planes.size // 2
    kept = first = 0
    while kept < count:
        if first >= 2 * count + 64:
            missing = count - kept
            raise ArithmeticError(f"{missing} of {count} disk points missing after {first} pairs")
        size = min(_DISK_ROUND, (count - kept) * 4 // 3 + 16)
        xy = stream_uniform(seed, lane, 2 * first, 2 * size)
        xy *= 2.0
        xy -= 1.0
        inside = np.flatnonzero(_squared_radii(xy[0::2], xy[1::2]) < 1.0)[: count - kept]
        points = np.take(xy.reshape(size, 2), inside, axis=0)
        for way in range(ways):
            skip = (way - kept) % ways
            dealt = points[skip::ways]
            column = (kept + skip) // ways
            planes[2 * way : 2 * way + 2, column : column + len(dealt)] = dealt.T
        kept += inside.size
        first += size


def _squared_radii(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x*x + y*y``, in the one order both the draw and the rows use."""
    s = np.square(x)
    s += np.square(y)
    return s


def _random_unit_rows(seed: int, lane: int, width: int, count: int) -> np.ndarray:
    """``count`` uniform points of the unit sphere in ``width`` = 3 or 4 dimensions, from ``lane``.

    Marsaglia's constructions (Ann. Math. Stat. 43, 1972) on the points of
    :func:`_disk_points`, with no trigonometry.  A 2-sphere row takes one
    point, ``(x, y)`` of squared radius ``s``, to ``(2x sqrt(1-s), 2y sqrt(1-s),
    1 - 2s)``.  A 3-sphere row takes the next two, ``(x1, y1)`` and ``(x2, y2)``,
    to ``(x1, y1, x2 c, y2 c)`` with ``c = sqrt((1 - s1) / s2)``.  So the first
    rows of a longer draw are the shorter draw.  Rows are the ``(count, width)``
    view of a coefficient-major block, as the row kernels return.
    """
    block = np.empty((width, count))
    if width == 3:
        x, y, z = block
        _disk_points(seed, lane, block[:2])
        s = _squared_radii(x, y)
        np.multiply(s, -2.0, out=z)
        z += 1.0
        np.subtract(1.0, s, out=s)
        np.sqrt(s, out=s)
        s *= 2.0
        x *= s
        y *= s
        return block.T
    x1, y1, x2, y2 = block
    _disk_points(seed, lane, block)
    scale = np.subtract(1.0, _squared_radii(x1, y1))
    scale /= _squared_radii(x2, y2)
    np.sqrt(scale, out=scale)
    x2 *= scale
    y2 *= scale
    return block.T


def factorize_s3_point(target, count, seed: int):
    """Split a 3-sphere point into ``count`` unit factors that multiply back to it.

    The first ``count - 1`` factors are drawn uniformly on the 3-sphere
    (Marsaglia's construction on lane 1 of ``seed``'s splitmix64 stream, see
    :func:`_random_unit_rows`, so a fixed seed gives fixed factors); the last
    factor is the inverse of their ordered product times the target.  Every
    factor is unit and the ordered product reproduces the target up to
    rounding.  An :class:`EvenElement` target gives a list of factors;
    ``(N, 4)`` target rows give ``(N, count, 4)`` factor rows, and targets of
    any other shape raise ``ValueError``.

    For rows, ``count`` may also be an ``(N,)`` integer array of per-row
    counts.  The result is then ``(N, max(count), 4)``: one draw of
    ``sum(count - 1)`` factors fills each row's slots before its last
    factor, in row order, the last factor sits at slot ``count - 1``, and
    the unused slots hold the exact identity ``(1, 0, 0, 0)``, so the
    ordered product over all slots is still the target.  Equal counts give
    the same factors as the int count.  Factor rows are the ``(N, slots, 4)``
    view of a coefficient-major ``(4, slots, N)`` block, so each slot the
    products read has contiguous columns; the draws still fill the rows in C
    order, through one mask of the slots each row draws.
    """
    counts = np.asarray(count)
    if counts.dtype.kind not in "iu":
        raise ValueError(f"factor counts must be integers, got {count!r}")
    if np.any(counts < 1):
        raise ValueError(f"factor count must be at least 1, got {count}")
    if isinstance(target, EvenElement):
        rows = factorize_s3_point(np.array([target.coeffs]), count, seed)[0]
        return [EvenElement(*row) for row in rows]
    targets = np.asarray(target, dtype=float)
    if targets.ndim != 2 or targets.shape[1] != 4:
        raise ValueError(f"target rows must have shape (N, 4), got {targets.shape}")
    if not np.all(np.abs(np.sum(targets * targets, axis=-1) - 1.0) <= 1e-9):
        raise ValueError("target must lie on the unit 3-sphere (within 1e-9)")
    if counts.ndim and counts.shape != targets.shape[:1]:
        raise ValueError(f"need one factor count per target row, got shape {counts.shape}")
    n = len(targets)
    width = int(counts.max(initial=1)) - 1
    counts = np.broadcast_to(counts.astype(np.intp), (n,))
    store = np.zeros((4, width + 1, n))
    store[0] = 1.0
    factors = store.transpose()
    if width == 0:
        factors[:, 0] = targets
        return factors
    draws = counts - 1
    drawn = np.arange(width) < draws[:, None]
    factors[:, :width][drawn] = _random_unit_rows(seed, _FACTOR_LANE, 4, int(draws.sum()))
    prefix = functools.reduce(even_product, factors[:, :width].swapaxes(0, 1))
    last = even_product(prefix * np.array([1.0, -1.0, -1.0, -1.0]), targets)
    last /= np.linalg.norm(last, axis=1, keepdims=True)
    factors[np.arange(n), draws] = last
    return factors


def s2_nonclosure_witness(a, b):
    """Product of the two equatorial points dual to ``a`` and ``b``.

    Its scalar part is minus the dot product of ``a`` and ``b``, so whenever
    they are not orthogonal the product has left the equator: the 2-sphere is
    not closed under multiplication, while the ambient 3-sphere is.
    """
    return even_product(dual_bivector(RIGHT_HANDED, a), dual_bivector(RIGHT_HANDED, b))


def stereographic_project(p):
    """Project from the north pole ``(0, 0, 1)`` onto the ``z = 0`` plane.

    The north pole itself has no image; inputs within ``1e-12`` of it are
    rejected with :class:`NorthPoleError`, for rows if any row is.
    """
    x, y, z = _columns(p)
    d = 1.0 - z
    if np.any(np.abs(d) <= 1e-12):
        raise NorthPoleError("the north pole has no image under this projection")
    return _result(PlanePoint, (x / d, y / d), p)


def stereographic_unproject(q):
    """Closed-form inverse of :func:`stereographic_project`.

    The height is written ``1 - 2/(1 + r^2)``, which also gives the north
    pole, the limit far from the origin, when ``r^2`` overflows.
    """
    u, v = _columns(q)
    d = u * u + v * v + 1.0
    return _result(S2Point, (2.0 * u / d, 2.0 * v / d, 1.0 - 2.0 / d), q)
