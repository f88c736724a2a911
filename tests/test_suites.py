"""The array kernels behind the identity suites, and the suites themselves.

Every batched operation must agree row for row with its dataclass form,
each suite must be able to fail when the code it checks is wrong, and the
block size must keep memory flat in the sample count.
"""

import math
import tracemalloc

import numpy as np
import pytest

from threesphere import algebra, suites
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
)
from threesphere.topology import (
    PlanePoint,
    S2Point,
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
# Batched rows equal the dataclass results row for row
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("product", [geometric_product, wedge])
def test_full_products_match_the_dataclass_form(rng, product):
    lhs, rhs = rng.uniform(-5.0, 5.0, (2, ROWS, 8))
    rows = product(lhs, rhs)
    assert rows.shape == (ROWS, 8)
    for a, b, row in zip(lhs, rhs, rows):
        expected = product(Multivector(tuple(a)), Multivector(tuple(b))).coeffs
        # The one-row call and the batch may sum the 64 terms in another
        # order, so agreement is to rounding of coefficients below 25*8.
        np.testing.assert_allclose(row, expected, rtol=0.0, atol=1e-12)


def test_even_products_match_the_dataclass_form(rng, handed):
    lhs, rhs = rng.standard_normal((2, ROWS, 4))
    signs = np.full(ROWS, float(handed.sign))
    oriented = oriented_even_product(signs, lhs, rhs)
    canonical = even_product(lhs, rhs)
    for a, b, row, right in zip(lhs, rhs, oriented, canonical):
        p, q = EvenElement(*a), EvenElement(*b)
        assert tuple(row) == oriented_even_product(handed, p, q).coeffs
        assert tuple(right) == even_product(p, q).coeffs


def test_mixed_row_signs_pick_each_row_orientation(rng):
    lhs, rhs = rng.standard_normal((2, ROWS, 4))
    signs = 1.0 - 2.0 * rng.integers(2, size=ROWS)
    rows = oriented_even_product(signs, lhs, rhs)
    for sign, a, b, row in zip(signs, lhs, rhs, rows):
        expected = oriented_even_product(Handedness(int(sign)), EvenElement(*a), EvenElement(*b))
        assert tuple(row) == expected.coeffs


def test_duals_and_identity_residuals_match_the_dataclass_form(rng, handed):
    a, b = rng.standard_normal((2, ROWS, 3))
    signs = np.full(ROWS, float(handed.sign))
    duals = dual_bivector(signs, a)
    residuals = bivector_identity_residual(signs, a, b)
    witnesses = s2_nonclosure_witness(a, b)
    for u, v, dual, residual, witness in zip(a, b, duals, residuals, witnesses):
        u3, v3 = Vector3(*u), Vector3(*v)
        assert tuple(dual) == dual_bivector(handed, u3).coeffs
        assert tuple(residual) == bivector_identity_residual(handed, u3, v3).coeffs
        assert tuple(witness) == s2_nonclosure_witness(u3, v3).coeffs


def test_outcomes_match_the_dataclass_form(rng, handed):
    alpha, beta = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (2, ROWS))
    signs = np.full(ROWS, float(handed.sign))
    axes = polarizer_axis(alpha)
    alices = alice_outcome(alpha, signs)
    bobs = bob_outcome(beta, signs)
    closed = joint_product_closed_form(alpha, beta, signs)
    for a, b, axis, alice, bob, joint in zip(alpha, beta, axes, alices, bobs, closed):
        pa, pb = PolarizerAngle(a), PolarizerAngle(b)
        v = polarizer_axis(pa)
        assert tuple(axis) == (v.x, v.y, v.z)
        assert tuple(alice) == alice_outcome(pa, handed).coeffs
        assert tuple(bob) == bob_outcome(pb, handed).coeffs
        assert tuple(joint) == joint_product_closed_form(pa, pb, handed).coeffs


def test_stereographic_maps_match_the_dataclass_form(rng):
    points = unit_rows(rng, (ROWS,), 3)
    points[points[:, 2] > 0.999, 2] *= -1.0
    images = stereographic_project(points)
    backs = stereographic_unproject(images)
    for point, image, back in zip(points, images, backs):
        plane = stereographic_project(S2Point(*point))
        assert tuple(image) == (plane.u, plane.v)
        sphere = stereographic_unproject(PlanePoint(*image))
        assert tuple(back) == (sphere.x, sphere.y, sphere.z)


@pytest.mark.parametrize("count", [1, 2, 5, 8])
def test_batched_factorization_matches_the_dataclass_chain(rng, count):
    targets = unit_rows(rng, (ROWS,), 4)
    factors = factorize_s3_point(targets, count, seed=11)
    assert factors.shape == (ROWS, count, 4)
    for target, rows in zip(targets, factors):
        elements = [EvenElement(*row) for row in rows]
        prefix = EvenElement.scalar(1.0)
        for f in elements[:-1]:
            prefix = even_product(prefix, f)
        last = even_product(prefix.conjugate(), EvenElement(*target)).normalized()
        np.testing.assert_allclose(rows[-1], last.coeffs, rtol=0.0, atol=1e-15)
    single = factorize_s3_point(EvenElement(*targets[0]), count, seed=11)
    one_row = factorize_s3_point(targets[:1], count, seed=11)[0]
    assert [f.coeffs for f in single] == [tuple(row) for row in one_row]


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


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "samples", [1, suites.BLOCK - 1, suites.BLOCK, suites.BLOCK + 1, 10**4]
)
def test_every_check_passes_at_block_edges(samples):
    checks = all_checks(samples, seed=3)
    assert [check.name for check in checks] == CHECK_NAMES
    assert all(check.passed for check in checks), [c for c in checks if not c.passed]


def test_suites_refuse_an_empty_sample():
    for suite in suites.SUITES.values():
        with pytest.raises(ValueError, match="samples must be at least 1"):
            suite(samples=0)


def test_algebra_suite_memory_is_flat_in_the_sample_count():
    tracemalloc.start()
    try:
        # A first traced run fills the interpreter's bounded free lists, which
        # tracemalloc counts as allocated, so both measured runs start alike.
        suites.algebra_suite(samples=3 * 10**5, seed=2)
        peaks = []
        for samples in (10**4, 10**5):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            suites.algebra_suite(samples=samples, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    small, large = peaks
    assert large <= 1.1 * small, peaks
