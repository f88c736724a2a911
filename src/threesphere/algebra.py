"""Dense Clifford algebra of Euclidean 3-space and its even subalgebra.

The full algebra is eight dimensional.  A :class:`Multivector` stores its
coefficients in the fixed order

    ``(1, e_x, e_y, e_z, e_y^e_z, e_z^e_x, e_x^e_y, e_x^e_y^e_z)``

where the orthonormal vectors square to ``+1`` and anticommute; that rule
determines every other basis product.  The bivectors are stored in the
order dual to the vectors, so that multiplying a vector by the unit
volume element is a plain componentwise copy.

The even part (scalar plus the three bivectors) is closed under the
geometric product and is isomorphic to the quaternions; its unit elements
form the 3-sphere, and the pure unit bivectors form the equatorial
2-sphere inside it.  :class:`Handedness` picks the orientation of the
volume element.  The multiplication table itself is fixed right-handed;
the left-handed convention is obtained by carrying the orientation sign
through the vector-to-bivector duality and through the cross-product term
of the oriented product (see :func:`oriented_even_product`).

Every operation is an array kernel over stacked ``(..., 8)``, ``(..., 4)``
or ``(..., 3)`` coefficient rows, with the orientation as +1/-1 row signs:
the full products read their signs from a signed ``(8, 8, 8)`` Cayley
tensor and gather one blade per term, the even ones write the four rows
of one column formula in place into their result block.  A dataclass
argument, a :class:`Handedness` for the signs, is one row: dataclasses
alone return a dataclass, and among arrays each is broadcast as its row.
Array results follow one layout rule: rows are a ``(..., k)`` view of one
coefficient-major ``(k, ...)`` block, so each column a chained kernel
reads is contiguous.  Products are only :func:`geometric_product`,
:func:`wedge` and :func:`even_product`: a :class:`Multivector` supports
``+`` and scaling; :class:`EvenElement` supports negation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, is_dataclass

import numpy as np

__all__ = [
    "Multivector",
    "Vector3",
    "Handedness",
    "EvenElement",
    "RIGHT_HANDED",
    "LEFT_HANDED",
    "ONE",
    "E_X",
    "E_Y",
    "E_Z",
    "E_YZ",
    "E_ZX",
    "E_XY",
    "PSEUDOSCALAR",
    "geometric_product",
    "wedge",
    "dual_bivector",
    "even_product",
    "oriented_even_product",
    "bivector_identity_residual",
]

_BLADE_NAMES = ("1", "e_x", "e_y", "e_z", "e_yz", "e_zx", "e_xy", "e_xyz")

# Canonical bitmask of each basis blade (bit0 = x, bit1 = y, bit2 = z) and
# its sign relative to ascending-generator order: e_z^e_x is stored, which
# is minus the canonical e_x^e_z.
_BASIS_MASKS = (0b000, 0b001, 0b010, 0b100, 0b110, 0b101, 0b011, 0b111)
_BASIS_SIGNS = (1, 1, 1, 1, 1, -1, 1, 1)


def _reordering_sign(lhs_mask: int, rhs_mask: int) -> int:
    """Sign from sorting the concatenated generators into ascending order."""
    lhs_mask >>= 1
    swaps = 0
    while lhs_mask:
        swaps += (lhs_mask & rhs_mask).bit_count()
        lhs_mask >>= 1
    return -1 if swaps & 1 else 1


# e_i e_j is a signed e_k with mask_k = mask_i ^ mask_j: k = _GATHER[i][j], and as XOR
# is its own inverse, j = _GATHER[i][k].  So for each (i, k) both tensors are nonzero at
# most at that j; indexing a tensor with _SIGN_AT picks those (8, 8) entries.
_GATHER = [
    [_BASIS_MASKS.index(mask_i ^ mask_k) for mask_k in _BASIS_MASKS] for mask_i in _BASIS_MASKS
]
_SIGN_AT = (np.arange(8)[:, None], np.array(_GATHER), np.arange(8))


def _build_tensors():
    """Signed ``(8, 8, 8)`` Cayley tensors: ``T[i, j, k]`` is the sign of ``e_k`` in ``e_i e_j``."""
    product = np.zeros((8, 8, 8))
    exterior = np.zeros((8, 8, 8))
    for i, mask_i in enumerate(_BASIS_MASKS):
        for j, mask_j in enumerate(_BASIS_MASKS):
            k = _GATHER[i][j]
            sign = _BASIS_SIGNS[i] * _BASIS_SIGNS[j] * _BASIS_SIGNS[k]
            sign *= _reordering_sign(mask_i, mask_j)
            product[i, j, k] = sign
            # The exterior product keeps only the grade-raising part, which
            # for basis blades means the generator sets must be disjoint.
            if mask_i & mask_j == 0:
                exterior[i, j, k] = sign
    return product, exterior


_PRODUCT_TENSOR, _WEDGE_TENSOR = _build_tensors()


@dataclass(frozen=True)
class Multivector:
    """Element of the eight-dimensional algebra, dense coefficient form."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) != 8:
            raise ValueError("a multivector needs exactly 8 coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def __add__(self, other: "Multivector") -> "Multivector":
        return Multivector(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(tuple(a * other for a in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        terms = [
            f"{c:g}*{name}" if name != "1" else f"{c:g}"
            for c, name in zip(self.coeffs, _BLADE_NAMES)
            if c != 0.0
        ]
        return " + ".join(terms) if terms else "0"


def _bilinear(tensor: np.ndarray, lhs, rhs):
    """``sum_ij lhs_i rhs_j tensor[i, j, k]`` over broadcast ``(..., 8)`` rows, as signed gathers.

    Row ``i`` of the tensor sends ``e_i e_j`` to one signed blade, so
    coefficient ``k`` is ``sum_i sign * lhs_i * rhs_j`` with ``j =
    _GATHER[i][k]`` and the sign read from ``tensor[i, j, k]``; a zero entry
    drops the term.  The gather and the sign are exact, with no matmul: each
    term is one rounded product, added or subtracted in ``i`` order on
    coefficient-major copies of the rows, so no ``(..., 64)`` intermediate is
    built.  Rows come back as a ``(..., 8)`` view of the coefficient-major sums.
    """
    left, right = (np.ascontiguousarray(np.moveaxis(_row(x), -1, 0)) for x in (lhs, rhs))
    batch = np.broadcast_shapes(left.shape[1:], right.shape[1:])
    total = np.zeros((8,) + batch)
    term = np.empty(batch)
    rows = [right[j, ...] for j in range(8)]
    sums = [total[k, ...] for k in range(8)]
    for column, blades, signs in zip(left, _GATHER, tensor[_SIGN_AT].tolist()):
        for total_k, j, sign in zip(sums, blades, signs):
            if sign:
                np.multiply(column, rows[j], out=term)
                (np.add if sign > 0 else np.subtract)(total_k, term, out=total_k)
    return _result(lambda *coeffs: Multivector(coeffs), total, lhs, rhs)


def geometric_product(lhs, rhs):
    """Full geometric product: coefficient ``k`` is ``sum_ij lhs_i rhs_j T[i, j, k]``."""
    return _bilinear(_PRODUCT_TENSOR, lhs, rhs)


def wedge(lhs, rhs):
    """Exterior (grade-raising) part of the geometric product.

    For vectors ``u`` and ``v`` this is the antisymmetric half
    ``(uv - vu) / 2``; for higher blades it keeps exactly the terms whose
    grade is the sum of the factor grades.
    """
    return _bilinear(_WEDGE_TENSOR, lhs, rhs)


def _basis(i: int) -> Multivector:
    return Multivector(tuple(1.0 if j == i else 0.0 for j in range(8)))


ONE = _basis(0)
E_X = _basis(1)
E_Y = _basis(2)
E_Z = _basis(3)
E_YZ = _basis(4)
E_ZX = _basis(5)
E_XY = _basis(6)
PSEUDOSCALAR = _basis(7)


@dataclass(frozen=True)
class Vector3:
    """Direction in Euclidean 3-space."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class Handedness:
    """Orientation of the volume element: +1 right-handed, -1 left-handed.

    Only the two values exist.
    """

    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"handedness sign must be +1 or -1, got {self.sign!r}")


RIGHT_HANDED = Handedness(1)
LEFT_HANDED = Handedness(-1)


@dataclass(frozen=True)
class EvenElement:
    """Scalar plus bivector: one point of the quaternion-like even part.

    ``norm_squared() == 1`` puts the element on the unit 3-sphere; a unit
    element with zero scalar part sits on the equatorial 2-sphere.
    """

    s: float
    b_yz: float
    b_zx: float
    b_xy: float

    def __post_init__(self):
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "b_yz", float(self.b_yz))
        object.__setattr__(self, "b_zx", float(self.b_zx))
        object.__setattr__(self, "b_xy", float(self.b_xy))

    def embed(self) -> Multivector:
        return Multivector((self.s, 0.0, 0.0, 0.0, self.b_yz, self.b_zx, self.b_xy, 0.0))

    @property
    def coeffs(self) -> tuple:
        return (self.s, self.b_yz, self.b_zx, self.b_xy)

    def norm_squared(self) -> float:
        return self.s * self.s + self.b_yz * self.b_yz + self.b_zx * self.b_zx + self.b_xy * self.b_xy

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def __neg__(self) -> "EvenElement":
        return EvenElement(-self.s, -self.b_yz, -self.b_zx, -self.b_xy)


def _signs(handedness):
    """The orientation factor: a float for a :class:`Handedness`, else float row signs."""
    if isinstance(handedness, Handedness):
        return float(handedness.sign)
    signs = np.asarray(handedness, dtype=float)
    if not np.all(np.abs(signs) == 1.0):
        raise ValueError("handedness signs must all be +1 or -1")
    return signs


def _columns(x) -> tuple:
    """The ``k`` coefficient columns of ``(..., k)`` rows; a dataclass gives its coefficients."""
    if not isinstance(x, np.ndarray) and is_dataclass(x):
        return x.coeffs if hasattr(x, "coeffs") else tuple(vars(x).values())
    rows = np.asarray(x, dtype=float)
    return tuple(rows[..., i] for i in range(rows.shape[-1]))


def _row(x) -> np.ndarray:
    """``x`` as a float array of ``(..., k)`` rows; a dataclass is one row."""
    return np.asarray(_columns(x) if is_dataclass(x) else x, dtype=float)


def _result(kind, coeffs, *args):
    """The one-row rule: a ``kind`` when every argument is a dataclass, else rows.

    Rows take the broadcast shape of the columns, so a dataclass among arrays
    is one row.  The layout rule: rows are the ``(..., k)`` view of one
    coefficient-major ``(k, ...)`` block, so each column the next kernel
    reads is contiguous.  Columns are written into a new block; a
    coefficient-major array is that block.
    """
    if all(map(is_dataclass, args)):
        return kind(*map(float, coeffs))
    if not isinstance(coeffs, np.ndarray):
        block = np.empty((len(coeffs),) + np.broadcast(*coeffs).shape)
        for i, column in enumerate(coeffs):
            block[i] = column
        coeffs = block
    return coeffs.transpose((*range(1, coeffs.ndim), 0))


def _gap(lhs, rhs) -> float:
    """Largest absolute difference between two coefficient arrays of one shape."""
    return float(np.max(np.abs(np.subtract(lhs, rhs))))


def dual_bivector(handedness, direction):
    """Bivector dual to ``direction`` under the given orientation.

    With right-handed orientation the components copy straight across:
    ``x -> e_yz``, ``y -> e_zx``, ``z -> e_xy``; the left-handed dual is
    the negation.  The scalar part is exactly zero, so unit directions
    land on the equatorial 2-sphere.
    """
    x, y, z = _columns(direction)
    h = _signs(handedness)
    return _result(EvenElement, (0.0, h * x, h * y, h * z), handedness, direction)


def even_product(lhs, rhs):
    """Product of even elements in the fixed right-handed convention.

    Agrees with :func:`geometric_product` after embedding; unit bivectors
    obey ``(dual e_j)(dual e_k) = -delta_jk - eps_jkl (dual e_l)``, and the
    norm is multiplicative, which is exactly the closure of the 3-sphere.
    The ``RIGHT_HANDED`` case of :func:`oriented_even_product`.
    """
    return oriented_even_product(RIGHT_HANDED, lhs, rhs)


def oriented_even_product(handedness, lhs, rhs):
    """Product of even elements taken in the basis the orientation selects.

    Re-expressing both factors in the basis of left-handed bivectors,
    multiplying with the fixed table, and mapping back flips the sign of
    the cross-product term only.  Right-handed orientation therefore
    reduces to :func:`even_product`; either way the scalar part and the
    norm are unchanged, so closure of the 3-sphere is orientation-free.
    """
    s1, *u = _columns(lhs)
    s2, *v = _columns(rhs)
    h = _signs(handedness)
    signed = isinstance(h, np.ndarray)
    block = np.empty((4,) + np.broadcast(s1, *u, s2, *v, h).shape)
    scalar, *bivector = (block[k, ...] for k in range(4))
    term = np.empty_like(scalar)
    # Bivector k is (s1 v_k + s2 u_k) - h (u x v)_k, written into its row with the
    # scalar row, written last, as a second scratch row.  A Handedness adds or
    # subtracts the cross term, exactly what subtracting it times +-1.0 gives.
    combine = np.subtract if signed or h > 0 else np.add
    for k, row in enumerate(bivector):
        i, j = (k + 1) % 3, (k + 2) % 3
        np.multiply(u[i], v[j], out=row)
        np.multiply(u[j], v[i], out=term)
        row -= term
        if signed:
            row *= h
        np.multiply(s1, v[k], out=term)
        np.multiply(s2, u[k], out=scalar)
        term += scalar
        combine(term, row, out=row)
    np.multiply(u[0], v[0], out=scalar)
    for k in (1, 2):
        np.multiply(u[k], v[k], out=term)
        scalar += term
    np.multiply(s1, s2, out=term)
    np.subtract(term, scalar, out=scalar)
    return _result(EvenElement, block, handedness, lhs, rhs)


def bivector_identity_residual(handedness, a, b):
    """Residual of the dual-bivector product identity; zero for all inputs.

    The product of the duals of ``a`` and ``b`` equals minus their dot
    product minus the dual of their cross product, provided the cross
    product is taken with the same handedness that defines the duals.
    The returned element is that product plus the dot and cross terms, so
    every coefficient vanishes up to rounding.
    """
    h = _signs(handedness)
    rows_a, rows_b = _row(a), _row(b)
    residual = even_product(dual_bivector(h, rows_a), dual_bivector(h, rows_b))
    residual[..., 0] += np.sum(rows_a * rows_b, axis=-1)
    residual = residual + dual_bivector(h, np.asarray(h)[..., None] * np.cross(rows_a, rows_b))
    return _result(EvenElement, np.moveaxis(residual, -1, 0), handedness, a, b)
