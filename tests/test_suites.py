"""The array kernels behind the identity suites, and the suites themselves.

Every batched operation must agree row for row with a per-row formula
written here, and its dataclass form with its batch row; each suite must
be able to fail when the code it checks is wrong, and the block size must
keep memory flat in the sample count.
"""

import functools
import itertools
import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from threesphere import algebra, suites, topology
from threesphere.algebra import (
    LEFT_HANDED,
    RIGHT_HANDED,
    EvenElement,
    Handedness,
    Multivector,
    Vector3,
    bivector_identity_residual,
    dual_bivector,
    even_product,
    geometric_product,
    oriented_even_product,
    wedge,
)
from threesphere.cli import main
from threesphere.protocol import (
    PolarizerAngle,
    alice_outcome,
    bob_outcome,
    joint_product_closed_form,
    polarizer_axis,
    stream_words,
)
from threesphere.topology import (
    PlanePoint,
    S2Point,
    _random_unit_rows,
    factorize_s3_point,
    s2_nonclosure_witness,
    stereographic_project,
    stereographic_unproject,
)

ROWS = 1000

CHECK_NAMES = [
    "vector product splits into dot plus wedge",
    "basis bivector products follow the orientation rule",
    "generic oriented bivector identity",
    "even subalgebra closes and matches the full product",
    "norm is multiplicative on the even part",
    "geometric product associates",
    "orientation flip negates the dual exactly",
    "stereographic round trip returns to the point",
    "north pole is rejected by the projection",
    "factors multiply back to the target",
    "every factor lies on the unit 3-sphere",
    "equatorial product scalar equals minus the dot",
    "the 3-sphere closes under multiplication",
    "closed form matches the direct outcome product",
    "outcomes sit on the equator of the 3-sphere",
    "outcome products stay on the 3-sphere",
    "outcomes are invariant under a half-turn",
    "orientation stream repeats for a fixed seed",
    "orientation samples are balanced within 4/sqrt(n)",
]


def all_checks(samples, seed=0):
    return [check for suite in suites.SUITES.values() for check in suite(samples, seed)]


def unit_rows(rng, shape, width):
    rows = rng.standard_normal(shape + (width,))
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20261017)


@pytest.fixture(params=[RIGHT_HANDED, LEFT_HANDED], ids=["right", "left"])
def handed(request):
    return request.param


# ---------------------------------------------------------------------------
# Batched rows equal independent per-row formulas
#
# The oracles below use plain floats, ``complex`` and ``math`` only, so a
# wrong kernel cannot agree with them by sharing code.  Each test also keeps
# one exact check that the dataclass call equals its batch row.
# ---------------------------------------------------------------------------

GRADES = (0, 1, 1, 1, 2, 2, 2, 3)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def full_product_oracle(a, b):
    """Geometric product with the algebra read as complex scalar plus complex vector.

    The volume element ``i = e_xyz`` is central and squares to -1, and
    ``e_yz, e_zx, e_xy = i e_x, i e_y, i e_z``; vector parts multiply as
    ``u v = u.v + i (u x v)``, which stays true for complex vectors.
    """
    s, t = complex(a[0], a[7]), complex(b[0], b[7])
    u = [complex(a[1 + k], a[4 + k]) for k in range(3)]
    v = [complex(b[1 + k], b[4 + k]) for k in range(3)]
    scalar = s * t + dot(u, v)
    vector = [s * y + t * x + 1j * c for x, y, c in zip(u, v, cross(u, v))]
    return (scalar.real, *(c.real for c in vector), *(c.imag for c in vector), scalar.imag)


def wedge_oracle(a, b):
    """Sum over grades ``r, s`` of the grade ``r + s`` part of ``a_r b_s``."""
    out = [0.0] * 8
    for r in range(4):
        for s in range(4 - r):
            a_r = [c if g == r else 0.0 for c, g in zip(a, GRADES)]
            b_s = [c if g == s else 0.0 for c, g in zip(b, GRADES)]
            for k, c in enumerate(full_product_oracle(a_r, b_s)):
                if GRADES[k] == r + s:
                    out[k] += c
    return out


def dual_oracle(h, u):
    """The oriented dual copies ``x, y, z`` onto ``e_yz, e_zx, e_xy`` times ``h``."""
    return (0.0, *(h * c for c in u))


def even_product_oracle(h, p, q):
    """``(s + B(u))(t + B(v)) = st - u.v + B(sv + tu - h u x v)``, B the dual map."""
    s, u, t, v = p[0], p[1:], q[0], q[1:]
    return (s * t - dot(u, v), *(s * y + t * x - h * c for x, y, c in zip(u, v, cross(u, v))))


FULL_ORACLES = {geometric_product: full_product_oracle, wedge: wedge_oracle}


@pytest.mark.parametrize("product", [geometric_product, wedge])
def test_full_products_match_the_dataclass_form(rng, product):
    lhs, rhs = rng.uniform(-5.0, 5.0, (2, ROWS, 8))
    rows = product(lhs, rhs)
    assert rows.shape == (ROWS, 8)
    expected = [FULL_ORACLES[product](a, b) for a, b in zip(lhs, rhs)]
    # Coefficients reach about 25*8, so the two summation orders agree to 1e-12.
    np.testing.assert_allclose(rows, expected, rtol=0.0, atol=1e-12)
    assert product(Multivector(tuple(lhs[0])), Multivector(tuple(rhs[0]))).coeffs == tuple(rows[0])


def eight_term_sum(tensor, lhs, rhs):
    """``sum_ij lhs_i rhs_j tensor[i, j, k]`` as a sum of eight matmul terms, one per lhs blade."""
    return sum(lhs[..., i, None] * (rhs @ tensor[i]) for i in range(8))


TENSORS = {geometric_product: algebra._PRODUCT_TENSOR, wedge: algebra._WEDGE_TENSOR}


@pytest.mark.parametrize("product", [geometric_product, wedge])
@pytest.mark.parametrize(
    "shapes", [((ROWS, 8), (ROWS, 8)), ((8,), (ROWS, 8)), ((1, 8), (8,))], ids=["NxN", "1xN", "1x1"]
)
def test_full_products_equal_the_eight_term_sum_bit_for_bit(rng, product, shapes):
    tensor = TENSORS[product]
    for scale in (1e-8, 1.0, 1e8):
        lhs, rhs = (scale * rng.standard_normal(shape) for shape in shapes)
        rows, expected = product(lhs, rhs), eight_term_sum(tensor, lhs, rhs)
        assert rows.shape == expected.shape
        assert rows.tobytes() == expected.tobytes()
    lhs, rhs = rng.standard_normal((2, 8))
    one = product(Multivector(tuple(lhs)), Multivector(tuple(rhs)))
    assert np.array(one.coeffs).tobytes() == eight_term_sum(tensor, lhs, rhs).tobytes()


def einsum_product(tensor, lhs, rhs):
    """The earlier kernel: one matmul by the ``(8, 64)`` reshaped tensor, then one einsum."""
    columns = rhs @ tensor.transpose(1, 0, 2).reshape(8, 64)
    return np.einsum("...i,...ik->...k", lhs, columns.reshape(rhs.shape[:-1] + (8, 8)))


def kernel_rows(rng, kind):
    """Two ``(BLOCK, 8)`` factors of one kind, as the algebra suite draws them."""
    if kind == "general":
        return rng.uniform(-10.0, 10.0, (2, suites.BLOCK, 8))
    rows = np.zeros((2, suites.BLOCK, 8))
    if kind == "vectors":
        rows[..., 1:4] = rng.standard_normal((2, suites.BLOCK, 3))
    else:
        rows[..., [0, 4, 5, 6]] = rng.standard_normal((2, suites.BLOCK, 4))
    return rows


@pytest.mark.parametrize("product", [geometric_product, wedge])
@pytest.mark.parametrize("kind", ["general", "vectors", "even"])
def test_full_products_equal_the_einsum_kernel(rng, product, kind):
    # Equal as floats: where the factors hold exact zeros, a zero term may
    # carry the other sign, so -0.0 and 0.0 may trade places.
    tensor = TENSORS[product]
    split = kernel_rows(rng, kind)
    lhs, rhs = split.copy()
    assert np.array_equal(product(lhs, rhs), einsum_product(tensor, lhs, rhs))
    assert np.array_equal(product(*split), einsum_product(tensor, *split))
    one = product(Multivector(tuple(lhs[0])), Multivector(tuple(rhs[0])))
    assert isinstance(one, Multivector)
    assert np.array_equal(one.coeffs, einsum_product(tensor, lhs[0], rhs[0]))


def test_geometric_product_builds_no_product_table(rng):
    lhs, rhs = kernel_rows(rng, "general")
    geometric_product(lhs, rhs)
    tracemalloc.start()
    try:
        geometric_product(lhs, rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Half of one (BLOCK, 64) float array, the earlier kernel's intermediate.
    assert peak < suites.BLOCK * 64 * 8 // 2, peak


def test_even_products_match_the_dataclass_form(rng, handed):
    lhs, rhs = rng.standard_normal((2, ROWS, 4))
    oriented = oriented_even_product(np.full(ROWS, float(handed.sign)), lhs, rhs)
    canonical = even_product(lhs, rhs)
    np.testing.assert_allclose(
        oriented, [even_product_oracle(handed.sign, a, b) for a, b in zip(lhs, rhs)], atol=1e-14
    )
    np.testing.assert_allclose(
        canonical, [even_product_oracle(1, a, b) for a, b in zip(lhs, rhs)], atol=1e-14
    )
    p, q = EvenElement(*lhs[0]), EvenElement(*rhs[0])
    assert oriented_even_product(handed, p, q).coeffs == tuple(oriented[0])
    assert even_product(p, q).coeffs == tuple(canonical[0])


def column_formula(h, lhs, rhs):
    """The even product as one numpy expression per coefficient, the earlier kernel's formula.

    ``h`` is a float orientation or an array of row signs; rows come back C-ordered.
    """
    s1, u1, u2, u3 = np.moveaxis(np.asarray(lhs, dtype=float), -1, 0)
    s2, v1, v2, v3 = np.moveaxis(np.asarray(rhs, dtype=float), -1, 0)
    coeffs = (
        s1 * s2 - (u1 * v1 + u2 * v2 + u3 * v3),
        s1 * v1 + s2 * u1 - h * (u2 * v3 - u3 * v2),
        s1 * v2 + s2 * u2 - h * (u3 * v1 - u1 * v3),
        s1 * v3 + s2 * u3 - h * (u1 * v2 - u2 * v1),
    )
    return np.stack(np.broadcast_arrays(*coeffs), axis=-1)


def orientation(rng, kind, rows):
    """The kernel's orientation argument and the formula's ``h`` for it."""
    if kind == "row signs":
        signs = 1.0 - 2.0 * rng.integers(2, size=rows)
        return signs, signs
    handedness = RIGHT_HANDED if kind == "right" else LEFT_HANDED
    return handedness, float(handedness.sign)


EVEN_SHAPES = {"NxN": ((ROWS, 4), (ROWS, 4)), "1xN": ((4,), (ROWS, 4)), "Nx1": ((ROWS, 4), (4,))}


@pytest.mark.parametrize("kind", ["right", "left", "row signs"])
@pytest.mark.parametrize("shapes", EVEN_SHAPES.values(), ids=EVEN_SHAPES)
def test_even_products_equal_the_column_formula_bit_for_bit(rng, kind, shapes):
    for scale in (1e-8, 1.0, 1e8):
        lhs, rhs = (scale * rng.standard_normal(shape) for shape in shapes)
        handedness, h = orientation(rng, kind, ROWS)
        rows, expected = oriented_even_product(handedness, lhs, rhs), column_formula(h, lhs, rhs)
        assert rows.shape == expected.shape
        assert rows.tobytes() == expected.tobytes()
        assert even_product(lhs, rhs).tobytes() == column_formula(1.0, lhs, rhs).tobytes()


@pytest.mark.parametrize("kind", ["right", "left", "row signs"])
def test_even_products_keep_the_signed_zeros_of_the_column_formula(rng, kind):
    # Every ordered pair of the signed even blades: most terms are 0.0 or -0.0.
    blades = np.concatenate([np.eye(4), -np.eye(4)])
    i, j = np.indices((8, 8)).reshape(2, -1)
    handedness, h = orientation(rng, kind, 64)
    rows = oriented_even_product(handedness, blades[i], blades[j])
    assert rows.tobytes() == column_formula(h, blades[i], blades[j]).tobytes()


@pytest.mark.parametrize("handedness", [RIGHT_HANDED, LEFT_HANDED], ids=["right", "left"])
def test_even_element_products_equal_the_column_formula_bit_for_bit(rng, handedness):
    with_zeros = np.array([[0.0, -1.0, 0.0, 2.0], [-0.0, 0.0, 3.0, 0.0]])
    pairs = [*rng.standard_normal((8, 2, 4)), with_zeros]
    for lhs, rhs in pairs:
        one = oriented_even_product(handedness, EvenElement(*lhs), EvenElement(*rhs))
        assert isinstance(one, EvenElement)
        expected = column_formula(float(handedness.sign), lhs, rhs)
        assert np.array(one.coeffs).tobytes() == expected.tobytes()


def test_products_of_factor_slots_equal_the_column_formula_bit_for_bit(rng):
    """The factor store's slots are strided ``(N, 4)`` views; their products and the ordered
    product over every slot match the formula on the same views."""
    factors = factorize_s3_point(unit_rows(rng, (ROWS,), 4), 1 + np.arange(ROWS) % 8, seed=11)
    slots = list(factors.swapaxes(0, 1))
    for lhs, rhs in zip(slots, slots[1:]):
        assert even_product(lhs, rhs).tobytes() == column_formula(1.0, lhs, rhs).tobytes()
    product = functools.reduce(even_product, slots)
    expected = functools.reduce(functools.partial(column_formula, 1.0), slots)
    assert product.tobytes() == expected.tobytes()


def test_mixed_row_signs_pick_each_row_orientation(rng):
    lhs, rhs = rng.standard_normal((2, ROWS, 4))
    signs = 1.0 - 2.0 * rng.integers(2, size=ROWS)
    rows = oriented_even_product(signs, lhs, rhs)
    expected = [even_product_oracle(h, a, b) for h, a, b in zip(signs, lhs, rhs)]
    np.testing.assert_allclose(rows, expected, rtol=0.0, atol=1e-14)
    p, q = EvenElement(*lhs[-1]), EvenElement(*rhs[-1])
    assert oriented_even_product(Handedness(int(signs[-1])), p, q).coeffs == tuple(rows[-1])


def test_duals_and_identity_residuals_match_the_dataclass_form(rng, handed):
    a, b = rng.standard_normal((2, ROWS, 3))
    signs = np.full(ROWS, float(handed.sign))
    duals = dual_bivector(signs, a)
    residuals = bivector_identity_residual(signs, a, b)
    witnesses = s2_nonclosure_witness(a, b)
    assert duals.tolist() == [list(dual_oracle(handed.sign, u)) for u in a]
    # The identity holds exactly, so the residual is rounding of terms near 10.
    np.testing.assert_allclose(residuals, 0.0, rtol=0.0, atol=1e-13)
    expected = [(-dot(u, v), *(-c for c in cross(u, v))) for u, v in zip(a, b)]
    np.testing.assert_allclose(witnesses, expected, rtol=0.0, atol=1e-14)
    u3, v3 = Vector3(*a[0]), Vector3(*b[0])
    assert dual_bivector(handed, u3).coeffs == tuple(duals[0])
    assert bivector_identity_residual(handed, u3, v3).coeffs == tuple(residuals[0])
    assert s2_nonclosure_witness(u3, v3).coeffs == tuple(witnesses[0])


def test_outcomes_match_the_dataclass_form(rng, handed):
    alpha, beta = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (2, ROWS))
    h = handed.sign
    signs = np.full(ROWS, float(h))
    axes = polarizer_axis(alpha)
    alices = alice_outcome(alpha, signs)
    bobs = bob_outcome(beta, signs)
    closed = joint_product_closed_form(alpha, beta, signs)
    def check(rows, expected):  # numpy's and libm's sine may differ in the last bit
        np.testing.assert_allclose(rows, expected, rtol=0.0, atol=1e-15)

    check(axes, [(math.sin(2.0 * a), math.cos(2.0 * a), 0.0) for a in alpha])
    check(alices, [(0.0, h * math.sin(2.0 * a), h * math.cos(2.0 * a), 0.0) for a in alpha])
    check(bobs, [(0.0, -h * math.sin(2.0 * b), -h * math.cos(2.0 * b), 0.0) for b in beta])
    d = [2.0 * (a - b) for a, b in zip(alpha, beta)]
    check(closed, [(math.cos(x), 0.0, 0.0, h * math.sin(x)) for x in d])
    pa, pb = PolarizerAngle(alpha[0]), PolarizerAngle(beta[0])
    v = polarizer_axis(pa)
    assert (v.x, v.y, v.z) == tuple(axes[0])
    assert alice_outcome(pa, handed).coeffs == tuple(alices[0])
    assert bob_outcome(pb, handed).coeffs == tuple(bobs[0])
    assert joint_product_closed_form(pa, pb, handed).coeffs == tuple(closed[0])


def test_stereographic_maps_match_the_dataclass_form(rng):
    points = unit_rows(rng, (ROWS,), 3)
    points[points[:, 2] > 0.999, 2] *= -1.0
    images = stereographic_project(points)
    backs = stereographic_unproject(images)
    expected = [(x / (1.0 - z), y / (1.0 - z)) for x, y, z in points]
    np.testing.assert_allclose(images, expected, rtol=1e-14, atol=0.0)
    expected = []
    for u, v in images:
        r2 = u * u + v * v
        expected.append((2.0 * u / (1.0 + r2), 2.0 * v / (1.0 + r2), (r2 - 1.0) / (r2 + 1.0)))
    np.testing.assert_allclose(backs, expected, rtol=0.0, atol=1e-15)
    plane = stereographic_project(S2Point(*points[0]))
    assert (plane.u, plane.v) == tuple(images[0])
    sphere = stereographic_unproject(PlanePoint(*images[0]))
    assert (sphere.x, sphere.y, sphere.z) == tuple(backs[0])


# Each argument kind: its dataclass made from one row, and a draw of ROWS rows.
ARGUMENTS = {
    "sign": (lambda row: Handedness(int(row)), lambda rng: 1.0 - 2.0 * rng.integers(2, size=ROWS)),
    "angle": (PolarizerAngle, lambda rng: rng.uniform(-2.0 * math.pi, 2.0 * math.pi, ROWS)),
    "vector": (lambda row: Vector3(*row), lambda rng: rng.standard_normal((ROWS, 3))),
    "even": (lambda row: EvenElement(*row), lambda rng: rng.standard_normal((ROWS, 4))),
    "multivector": (lambda row: Multivector(row), lambda rng: rng.standard_normal((ROWS, 8))),
    "sphere": (lambda row: S2Point(*row), lambda rng: -np.abs(unit_rows(rng, (ROWS,), 3))),
    "plane": (lambda row: PlanePoint(*row), lambda rng: rng.standard_normal((ROWS, 2))),
}

ROW_KERNELS = [
    (geometric_product, ("multivector", "multivector"), Multivector),
    (wedge, ("multivector", "multivector"), Multivector),
    (dual_bivector, ("sign", "vector"), EvenElement),
    (even_product, ("even", "even"), EvenElement),
    (oriented_even_product, ("sign", "even", "even"), EvenElement),
    (bivector_identity_residual, ("sign", "vector", "vector"), EvenElement),
    (s2_nonclosure_witness, ("vector", "vector"), EvenElement),
    (stereographic_project, ("sphere",), PlanePoint),
    (stereographic_unproject, ("plane",), S2Point),
    (polarizer_axis, ("angle",), Vector3),
    (alice_outcome, ("angle", "sign"), EvenElement),
    (bob_outcome, ("angle", "sign"), EvenElement),
    (joint_product_closed_form, ("angle", "angle", "sign"), EvenElement),
]


@pytest.mark.parametrize(
    "kernel, kinds, result", ROW_KERNELS, ids=[kernel.__name__ for kernel, _, _ in ROW_KERNELS]
)
def test_a_dataclass_among_rows_is_one_row(rng, kernel, kinds, result):
    rows = [ARGUMENTS[kind][1](rng) for kind in kinds]
    ones = [ARGUMENTS[kind][0](r[0]) for kind, r in zip(kinds, rows)]
    for picks in itertools.product((False, True), repeat=len(kinds)):
        mixed = kernel(*(one if pick else r for pick, one, r in zip(picks, ones, rows)))
        broadcast = (np.broadcast_to(r[0], r.shape) if pick else r for pick, r in zip(picks, rows))
        expected = kernel(*broadcast)
        if all(picks):
            assert type(mixed) is result
            coeffs = mixed.coeffs if result is Multivector else astuple(mixed)
            assert all(type(c) is float for c in coeffs)
            assert coeffs == tuple(expected[0])
        else:
            assert isinstance(mixed, np.ndarray) and np.array_equal(mixed, expected), picks


LAYOUT_KERNELS = [
    entry for entry in ROW_KERNELS
    if entry[0] in (
        dual_bivector, polarizer_axis, joint_product_closed_form, even_product,
        geometric_product, stereographic_project, stereographic_unproject,
    )
]


@pytest.mark.parametrize(
    "kernel, kinds, result", LAYOUT_KERNELS, ids=[kernel.__name__ for kernel, _, _ in LAYOUT_KERNELS]
)
def test_batch_rows_are_a_view_of_contiguous_columns(rng, kernel, kinds, result):
    """Rows are a ``(..., k)`` view of one coefficient-major block, so the next kernel
    reads contiguous columns, and each row has the bytes of its dataclass result."""
    rows = [ARGUMENTS[kind][1](rng) for kind in kinds]
    batch = kernel(*rows)
    assert np.moveaxis(batch, -1, 0).flags.c_contiguous
    ones = [kernel(*(ARGUMENTS[kind][0](r[i]) for kind, r in zip(kinds, rows))) for i in range(64)]
    expected = [one.coeffs if result is Multivector else astuple(one) for one in ones]
    assert batch[:64].tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("count", [1, 2, 5, 8])
def test_factor_slots_have_contiguous_columns(rng, count):
    """Each slot the prefix and the multiply-back read has contiguous columns, for int and
    mixed counts, and row 0 has the bytes of the dataclass factorization."""
    targets = unit_rows(rng, (ROWS,), 4)
    for counts in (count, 1 + np.arange(ROWS) % count):
        for slot in factorize_s3_point(targets, counts, seed=11).swapaxes(0, 1):
            assert all(column.flags.c_contiguous for column in np.moveaxis(slot, -1, 0))
    single = factorize_s3_point(EvenElement(*targets[0]), count, seed=11)
    factors = factorize_s3_point(targets, count, seed=11)
    assert np.array([f.coeffs for f in single]).tobytes() == factors[0].tobytes()


@pytest.mark.parametrize("count", [1, 2, 5, 8])
def test_batched_factorization_matches_the_dataclass_chain(rng, count):
    targets = unit_rows(rng, (ROWS,), 4)
    factors = factorize_s3_point(targets, count, seed=11)
    assert factors.shape == (ROWS, count, 4)
    # The first count - 1 factors are the documented draws: unit rows of the factor lane.
    draws = lane_rows(11, topology._FACTOR_LANE, 4, ROWS * (count - 1)).reshape(ROWS, count - 1, 4)
    for target, rows, drawn in zip(targets, factors, draws):
        assert rows[:-1].tobytes() == drawn.tobytes()
        prefix = (1.0, 0.0, 0.0, 0.0)
        for row in rows[:-1]:
            prefix = even_product_oracle(1, prefix, row)
        last = even_product_oracle(1, (prefix[0], -prefix[1], -prefix[2], -prefix[3]), target)
        norm = math.sqrt(dot(last, last))
        np.testing.assert_allclose(rows[-1], [c / norm for c in last], rtol=0.0, atol=1e-15)
        product = even_product_oracle(1, prefix, rows[-1])
        np.testing.assert_allclose(product, target, rtol=0.0, atol=1e-14)
    single = factorize_s3_point(EvenElement(*targets[0]), count, seed=11)
    assert [f.coeffs for f in single] == [tuple(row) for row in factors[0]]


@pytest.mark.parametrize("count", [1, 2, 5, 8])
def test_equal_factor_counts_reproduce_the_int_count(rng, count):
    targets = unit_rows(rng, (ROWS,), 4)
    expected = factorize_s3_point(targets, count, seed=11)
    for counts in (np.full(ROWS, count), np.full(ROWS, count, dtype=np.uint8)):
        factors = factorize_s3_point(targets, counts, seed=11)
        assert factors.shape == expected.shape
        assert factors.tobytes() == expected.tobytes()


def test_mixed_factor_counts_pad_with_the_exact_identity(rng):
    targets = unit_rows(rng, (ROWS,), 4)
    counts = rng.integers(1, 9, size=ROWS)
    counts[:2] = 1, 8
    factors = factorize_s3_point(targets, counts, seed=11)
    assert factors.shape == (ROWS, 8, 4)
    for target, count, rows in zip(targets, counts, factors):
        assert np.all(rows[count:] == (1.0, 0.0, 0.0, 0.0)), count
        for row in rows:
            assert abs(dot(row, row) - 1.0) <= 1e-14
        product = (1.0, 0.0, 0.0, 0.0)
        for row in rows[:count]:
            product = even_product_oracle(1, product, row)
        np.testing.assert_allclose(product, target, rtol=0.0, atol=1e-14)


def test_mixed_factor_counts_draw_only_the_slots_they_use(rng):
    targets = unit_rows(rng, (ROWS,), 4)
    counts = rng.integers(1, 9, size=ROWS)
    counts[:2] = 1, 8
    factors = factorize_s3_point(targets, counts, seed=11)
    slots = [row for count, rows in zip(counts, factors) for row in rows[: count - 1]]
    drawn = lane_rows(11, topology._FACTOR_LANE, 4, int(np.sum(counts - 1)))
    assert np.array(slots).tobytes() == drawn.tobytes()


def disk_points(seed, lane, count):
    """The first ``count`` pairs of ``lane``'s words, as ``2u - 1``, that fall inside the unit disk."""
    points, first = [], 0
    while len(points) < count:
        words = stream_words(seed, lane, 2 * first, 2 * 1024)
        us = [((int(w) >> 12) + 0.5) * 2.0**-52 for w in words]
        for x, y in zip(*[iter([2.0 * u - 1.0 for u in us])] * 2):
            if x * x + y * y < 1.0 and len(points) < count:
                points.append((x, y))
        first += 1024
    return points


def lane_rows(seed, lane, width, count):
    """Marsaglia's unit rows from the lane's disk points, one plain-float row at a time.

    A 2-sphere row maps one point, a 3-sphere row the next two.
    """
    points = iter(disk_points(seed, lane, count * (width - 2)))
    rows = []
    for _ in range(count):
        x, y = next(points)
        s = x * x + y * y
        if width == 3:
            f = math.sqrt(1.0 - s) * 2.0
            rows.append((x * f, y * f, s * -2.0 + 1.0))
        else:
            x2, y2 = next(points)
            c = math.sqrt((1.0 - s) / (x2 * x2 + y2 * y2))
            rows.append((x, y, x2 * c, y2 * c))
    return np.array(rows, dtype=float).reshape(count, width)


def padded_factorization(targets, count, seed):
    """The factorization as an explicit loop over every slot, padding included.

    ``topology.even_product`` is looked up at call time, as the library's product does.
    """
    counts = np.broadcast_to(np.asarray(count), targets.shape[:1])
    width = int(counts.max(initial=1)) - 1
    if width == 0:
        return targets[:, None, :].copy()
    factors = np.zeros((len(targets), width + 1, 4))
    factors[..., 0] = 1.0
    drawn = np.arange(width + 1) < counts[:, None] - 1
    factors[drawn] = lane_rows(seed, topology._FACTOR_LANE, 4, int(np.count_nonzero(drawn)))
    prefix = factors[:, 0]
    for k in range(1, width):
        prefix = topology.even_product(prefix, factors[:, k])
    last = topology.even_product(prefix * np.array([1.0, -1.0, -1.0, -1.0]), targets)
    last /= np.linalg.norm(last, axis=1, keepdims=True)
    factors[np.arange(len(targets)), counts - 1] = last
    return factors


MIXED_COUNTS = {
    "suite pattern": 1 + np.arange(ROWS) % 8,
    "shuffled with ones": np.random.default_rng(4).permutation(1 + np.arange(ROWS) % 5),
    "int 5": 5,
    "(N,) of 3": np.full(ROWS, 3),
    "uint8 up to 2": np.arange(ROWS, dtype=np.uint8) % 2 + 1,
    "all 1": np.ones(ROWS, dtype=int),
}


@pytest.mark.parametrize("counts", MIXED_COUNTS.values(), ids=MIXED_COUNTS)
def test_factorization_skipping_the_padding_equals_the_padded_loop(rng, counts):
    targets = unit_rows(rng, (ROWS,), 4)
    expected = padded_factorization(targets, counts, seed=11)
    factors = factorize_s3_point(targets, counts, seed=11)
    assert factors.shape == expected.shape
    assert np.array_equal(factors, expected)


def test_a_topology_block_multiplies_every_slot(monkeypatch):
    rows = []

    def counted(lhs, rhs):
        rows.append(len(lhs))
        return algebra.even_product(lhs, rhs)

    monkeypatch.setattr(topology, "even_product", counted)
    monkeypatch.setattr(suites, "even_product", counted)
    suites.topology_suite(samples=suites.BLOCK)
    # The first product is the equator witness on the 9 pairs of unit vectors,
    # once per call.  Every other product takes the whole block.  Besides the
    # prefix over the first 7 slots and the multiply-back over all 8, the last
    # factor, the equator witness and the closure check each multiply the block once.
    assert rows.pop(0) == 9
    assert set(rows) == {suites.BLOCK}
    others = 3 * suites.BLOCK
    assert sum(rows) - others == 6 * suites.BLOCK + 7 * suites.BLOCK == 24_576 + 28_672 == 53_248


@pytest.mark.parametrize("width", [3, 4])
def test_unit_rows_equal_marsaglias_construction_bit_for_bit(width):
    """Rows are the per-row formulas on the lane's disk points, and the first rows of a
    longer draw are the shorter draw."""
    count = 2 * suites.BLOCK + 3
    rows = _random_unit_rows(5, 2, width, count)
    assert rows.shape == (count, width)
    assert np.moveaxis(rows, -1, 0).flags.c_contiguous
    assert np.ascontiguousarray(rows).tobytes() == lane_rows(5, 2, width, count).tobytes()
    assert _random_unit_rows(5, 2, width, 1000).tobytes() == rows[:1000].tobytes()


@pytest.mark.parametrize(
    "counts",
    [[0, 2, 3], [2, -1, 3], [1.0, 2.0, 3.0], [1.5, 2, 3], [True, True, True], [2, 3], [[2, 3, 4]]],
    ids=["zero", "negative", "float", "fraction", "bool", "short", "2d"],
)
def test_factor_counts_are_validated(rng, counts):
    with pytest.raises(ValueError):
        factorize_s3_point(unit_rows(rng, (3,), 4), np.array(counts), seed=0)


def test_batched_inputs_are_validated():
    with pytest.raises(ValueError):
        alice_outcome(np.array([0.0, math.nan]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        joint_product_closed_form(np.array([math.inf]), np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        dual_bivector(np.array([1.0, 0.5]), np.eye(3)[:2])
    with pytest.raises(ValueError):
        factorize_s3_point(np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]), 3, seed=0)
    with pytest.raises(ValueError):
        stereographic_project(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    # Targets are (N, 4) rows; a lone row, a third axis or three-wide rows are refused.
    one = [1.0, 0.0, 0.0, 0.0]
    for target in (one, [[one]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]):
        with pytest.raises(ValueError, match=r"shape \(N, 4\), got \("):
            factorize_s3_point(np.array(target), 1, seed=0)


# ---------------------------------------------------------------------------
# Every check can fail
# ---------------------------------------------------------------------------


def failing(samples=200):
    return {check.name for check in all_checks(samples) if not check.passed}


def test_flipped_cross_term_fails_the_even_closure_check(monkeypatch, capsys):
    def flipped(lhs, rhs):
        return algebra.oriented_even_product(LEFT_HANDED, lhs, rhs)

    monkeypatch.setattr(suites, "even_product", flipped)
    assert "even subalgebra closes and matches the full product" in failing()
    assert main(["verify", "algebra", "--samples", "200"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "verify: FAILURES above"


def test_wrong_cayley_entry_fails_the_even_closure_check(monkeypatch):
    tensor = algebra._PRODUCT_TENSOR.copy()
    tensor[4, 5] *= -1.0  # e_yz e_zx now has the wrong sign
    monkeypatch.setattr(algebra, "_PRODUCT_TENSOR", tensor)
    assert "even subalgebra closes and matches the full product" in failing()
    assert main(["verify", "algebra", "--samples", "200"]) == 1


def test_wrong_unproject_formula_fails_the_round_trip_check(monkeypatch):
    def flipped_height(rows):
        u, v = rows[:, 0], rows[:, 1]
        d = u * u + v * v + 1.0
        return np.stack([2.0 * u / d, 2.0 * v / d, 2.0 / d - 1.0], axis=-1)

    monkeypatch.setattr(suites, "stereographic_unproject", flipped_height)
    assert failing() == {"stereographic round trip returns to the point"}
    assert main(["verify", "topology", "--samples", "200"]) == 1


def test_a_nan_residual_fails_its_topology_check(monkeypatch):
    monkeypatch.setattr(suites, "stereographic_unproject", lambda rows: np.full((len(rows), 3), np.nan))
    assert failing() == {"stereographic round trip returns to the point"}
    assert math.isnan(suites.topology_suite(200)[0].max_residual)


def test_accepted_north_pole_fails_the_pole_check(monkeypatch, capsys):
    project = suites.stereographic_project

    def accepting(p):  # the suite passes the pole alone, as one S2Point
        return PlanePoint(0.0, 0.0) if isinstance(p, S2Point) else project(p)

    monkeypatch.setattr(suites, "stereographic_project", accepting)
    assert failing() == {"north pole is rejected by the projection"}
    assert main(["verify", "topology", "--samples", "200"]) == 1
    line = "[topology] north pole is rejected by the projection: max residual 1.000e+00 (tol 0.0e+00) FAIL"
    assert line in capsys.readouterr().out.splitlines()


def test_unsigned_bob_outcome_fails_the_closed_form_check(monkeypatch, capsys):
    def unsigned(beta, handedness):
        return dual_bivector(handedness, polarizer_axis(beta))

    monkeypatch.setattr(suites, "bob_outcome", unsigned)
    assert failing() == {"closed form matches the direct outcome product"}
    assert main(["verify", "protocol", "--samples", "200"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "verify: FAILURES above"


def test_sign_sum_kernel_off_by_two_fails_the_stream_check(monkeypatch, capsys):
    exact = suites.handedness_sign_sum

    def off_by_two(seed, count, start=0):
        return exact(seed, count, start) + 2

    monkeypatch.setattr(suites, "handedness_sign_sum", off_by_two)
    assert failing() == {"orientation stream repeats for a fixed seed"}
    assert main(["verify", "protocol", "--samples", "200"]) == 1
    line = ("[protocol] orientation stream repeats for a fixed seed: max residual 2.000e+00 "
            "(tol 0.0e+00) FAIL")
    assert line in capsys.readouterr().out.splitlines()


def test_left_handed_chain_fails_the_factorization_check(monkeypatch, capsys):
    def flipped(lhs, rhs):
        return algebra.oriented_even_product(LEFT_HANDED, lhs, rhs)

    monkeypatch.setattr(suites, "even_product", flipped)
    failed = {check.name for check in suites.topology_suite(200) if not check.passed}
    assert failed == {"factors multiply back to the target"}
    assert main(["verify", "topology", "--samples", "200"]) == 1
    lines = capsys.readouterr().out.splitlines()
    line = next(line for line in lines if "factors multiply back" in line)
    assert line.startswith("[topology] factors multiply back to the target: max residual ")
    assert line.endswith(" (tol 1.0e-09) FAIL")


# ---------------------------------------------------------------------------
# Every basis check can fail by itself
#
# The bilinear algebra checks are exact on basis inputs; these faults are
# caught by the basis residuals alone, with no sampled block.
# ---------------------------------------------------------------------------

ALGEBRA_TOLERANCES = [1e-12, 1e-12, 1e-12, 1e-12, 1e-12, 1e-10, 0.0]


def failing_on_the_basis():
    residuals = suites._basis_residuals()
    return {name for name, residual, tol in zip(CHECK_NAMES, residuals, ALGEBRA_TOLERANCES)
            if not residual <= tol}


def test_correct_kernels_give_exactly_zero_on_the_basis():
    assert suites._basis_residuals() == (0.0,) * 7
    assert [check.tolerance for check in suites.algebra_suite(1)] == ALGEBRA_TOLERANCES


def test_wrong_cayley_entry_fails_associativity_and_closure_on_the_basis(monkeypatch):
    assert failing_on_the_basis() == set()
    tensor = algebra._PRODUCT_TENSOR.copy()
    tensor[4, 5] *= -1.0
    monkeypatch.setattr(algebra, "_PRODUCT_TENSOR", tensor)
    assert failing_on_the_basis() == {
        "even subalgebra closes and matches the full product",
        "geometric product associates",
    }


def test_left_handed_even_product_fails_closure_on_the_basis(monkeypatch):
    def flipped(lhs, rhs):
        return algebra.oriented_even_product(LEFT_HANDED, lhs, rhs)

    monkeypatch.setattr(suites, "even_product", flipped)
    assert failing_on_the_basis() == {"even subalgebra closes and matches the full product"}


def test_inexact_left_dual_fails_the_flip_on_the_basis(monkeypatch):
    def inexact(handedness, direction):
        dual = algebra.dual_bivector(handedness, direction)
        return dual * (1.0 - 2.0**-52) if handedness == LEFT_HANDED else dual

    monkeypatch.setattr(suites, "dual_bivector", inexact)
    assert failing_on_the_basis() == {"orientation flip negates the dual exactly"}


def test_the_equator_witness_is_exact_on_the_basis(monkeypatch):
    """The witness scalar is bilinear, so the 9 pairs of unit vectors hold it for every
    input.  A mutant product that flips the sign of one dot term in the scalar is seen
    there with residual 2; a cross-term mutant would leave the scalar unchanged."""
    pairs = np.eye(3)[np.indices((3, 3)).reshape(2, -1)]
    assert suites._witness_gap(*pairs) == 0.0

    def wrong_dot_sign(lhs, rhs):
        product = algebra.even_product(lhs, rhs)
        product[..., 0] += 2.0 * lhs[..., 3] * rhs[..., 3]
        return product

    monkeypatch.setattr(topology, "even_product", wrong_dot_sign)
    assert suites._witness_gap(*pairs) == 2.0
    # One sampled pair of random unit vectors reads 2|a_z b_z| < 2: the 2 is the basis's.
    witness = suites.topology_suite(samples=1)[4]
    assert witness.name == "equatorial product scalar equals minus the dot"
    assert witness.max_residual == 2.0 and not witness.passed


def test_basis_residuals_run_once_per_algebra_suite_call(monkeypatch):
    calls = []
    basis = suites._basis_residuals

    def counted():
        calls.append(None)
        return basis()

    monkeypatch.setattr(suites, "_basis_residuals", counted)
    for expected in (1, 2):
        suites.algebra_suite(samples=3 * suites.BLOCK)
        assert len(calls) == expected


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "samples",
    # 2,047 to 2,049 straddle half a block: the inline path below one block.
    sorted(
        {1, 2047, 2048, 2049, suites.BLOCK - 1, suites.BLOCK, suites.BLOCK + 1, 10**4}
    ),
)
def test_every_check_passes_at_block_edges(samples):
    checks = all_checks(samples, seed=3)
    assert [check.name for check in checks] == CHECK_NAMES
    assert all(check.passed for check in checks), [c for c in checks if not c.passed]


def test_suites_refuse_an_empty_sample():
    for suite in suites.SUITES.values():
        with pytest.raises(ValueError, match="samples must be at least 1"):
            suite(samples=0)


def peaks_at_one_and_ten_blocks(suite):
    """tracemalloc peaks of ``suite`` at one block of samples and at ten."""
    tracemalloc.start()
    try:
        # A first traced run fills the interpreter's bounded free lists, which
        # tracemalloc counts as allocated, so both measured runs start alike.
        suite(samples=10 * suites.BLOCK, seed=2)
        peaks = []
        for blocks in (1, 10):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            suite(samples=blocks * suites.BLOCK, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return peaks


def test_algebra_suite_memory_is_flat_in_the_sample_count():
    small, large = peaks = peaks_at_one_and_ten_blocks(suites.algebra_suite)
    assert large <= 1.1 * small, peaks


def test_topology_suite_memory_is_flat_in_the_sample_count():
    small, large = peaks = peaks_at_one_and_ten_blocks(suites.topology_suite)
    assert large <= 1.1 * small, peaks
