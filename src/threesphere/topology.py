"""Membership tests and constructions on the 3-sphere and its equator.

Unit even elements form the 3-sphere, which is closed under
multiplication; the pure unit bivectors form its equatorial 2-sphere,
which is not.  This module provides the membership predicates, a
demonstration of both facts, the factorization of any 3-sphere point
into an arbitrary number of unit factors, and the stereographic
projection between the 2-sphere (minus its north pole) and the plane.
The constructions also take stacked ``(..., 3)`` sphere, ``(..., 2)``
plane and ``(N, 4)`` even-element rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import RIGHT_HANDED, EvenElement, _columns, _rows, dual_bivector, even_product

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


def _random_unit_rows(rng: np.random.Generator, width: int, *shape: int) -> np.ndarray:
    """Uniform points of the unit sphere in ``width`` dimensions as ``shape + (width,)`` rows."""
    rows = rng.standard_normal(shape + (width,))
    rows /= np.sqrt(np.sum(rows * rows, axis=-1, keepdims=True))
    return rows


def factorize_s3_point(target, count, seed: int):
    """Split a 3-sphere point into ``count`` unit factors that multiply back to it.

    The first ``count - 1`` factors are drawn uniformly on the 3-sphere
    (normalized 4-component Gaussians, deterministic for a fixed seed);
    the last factor is the inverse of their ordered product times the
    target.  Every factor is unit and the ordered product reproduces the
    target up to rounding.  An :class:`EvenElement` target gives a list
    of factors; ``(N, 4)`` target rows give ``(N, count, 4)`` factor rows.

    For rows, ``count`` may also be an ``(N,)`` integer array of per-row
    counts.  The result is then ``(N, max(count), 4)``: one draw fills
    every slot before the last, a row's unused slots hold the exact
    identity ``(1, 0, 0, 0)``, and its last factor sits at slot
    ``count - 1``, so the ordered product over all slots is still the
    target.  Equal counts give the same factors as the int count.
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
    if not np.all(np.abs(np.sum(targets * targets, axis=-1) - 1.0) <= 1e-9):
        raise ValueError("target must lie on the unit 3-sphere (within 1e-9)")
    if counts.ndim and counts.shape != targets.shape[:1]:
        raise ValueError(f"need one factor count per target row, got shape {counts.shape}")
    width = int(counts.max(initial=1)) - 1
    counts = np.broadcast_to(counts, targets.shape[:1])
    if width == 0:
        return targets[:, None, :].copy()
    rng = np.random.default_rng(seed)
    # The draw is padded by one slot rather than written into a buffer made
    # first, so its temporaries and the factors are never alive together.
    padding = np.empty((len(targets), 1, 4))
    factors = np.concatenate([_random_unit_rows(rng, 4, len(targets), width), padding], axis=1)
    factors[np.arange(width + 1) >= counts[:, None] - 1] = (1.0, 0.0, 0.0, 0.0)
    prefix = factors[:, 0]
    for k in range(1, width):
        prefix = even_product(prefix, factors[:, k])
    last = even_product(prefix * np.array([1.0, -1.0, -1.0, -1.0]), targets)
    last /= np.linalg.norm(last, axis=1, keepdims=True)
    factors[np.arange(len(targets)), counts - 1] = last
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
    one = isinstance(p, S2Point)
    x, y, z = (p.x, p.y, p.z) if one else _columns(p)
    d = 1.0 - z
    if np.any(np.abs(d) <= 1e-12):
        raise NorthPoleError("the north pole has no image under this projection")
    coords = (x / d, y / d)
    return PlanePoint(*coords) if one else _rows(coords)


def stereographic_unproject(q):
    """Closed-form inverse of :func:`stereographic_project`.

    The height is written ``1 - 2/(1 + r^2)``, which also gives the north
    pole, the limit far from the origin, when ``r^2`` overflows.
    """
    one = isinstance(q, PlanePoint)
    u, v = (q.u, q.v) if one else _columns(q)
    d = u * u + v * v + 1.0
    coords = (2.0 * u / d, 2.0 * v / d, 1.0 - 2.0 / d)
    return S2Point(*coords) if one else _rows(coords)
