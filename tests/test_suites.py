"""The array kernels behind the identity suites, and the suites themselves.

Every batched operation must agree row for row with a per-row formula
written here, and its dataclass form with its batch row; each suite must
be able to fail when the code it checks is wrong, and the block size must
keep memory flat in the sample count.
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


@pytest.mark.parametrize("count", [1, 2, 5, 8])
def test_batched_factorization_matches_the_dataclass_chain(rng, count):
    targets = unit_rows(rng, (ROWS,), 4)
    factors = factorize_s3_point(targets, count, seed=11)
    assert factors.shape == (ROWS, count, 4)
    # The first count - 1 factors are the documented draws: normalized Gaussians.
    gaussians = np.random.default_rng(11).standard_normal((ROWS, count - 1, 4))
    for target, rows, drawn in zip(targets, factors, gaussians):
        for row, g in zip(rows, drawn):
            np.testing.assert_allclose(row, g / math.sqrt(dot(g, g)), rtol=0.0, atol=1e-15)
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


def test_accepted_north_pole_fails_the_pole_check(monkeypatch, capsys):
    project = suites.stereographic_project

    def accepting(p):  # the suite passes the pole alone, as one S2Point
        return PlanePoint(0.0, 0.0) if isinstance(p, S2Point) else project(p)

    monkeypatch.setattr(suites, "stereographic_project", accepting)
    assert failing() == {"north pole is rejected by the projection"}
    assert main(["verify", "topology", "--samples", "200"]) == 1
    line = "[topology] north pole is rejected by the projection: max residual 1.000e+00 (tol 0.0e+00) FAIL"
    assert line in capsys.readouterr().out.splitlines()


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
        suites.algebra_suite(samples=2 * 10**4, seed=2)
        peaks = []
        for samples in (4096, 2 * 10**4):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            suites.algebra_suite(samples=samples, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    small, large = peaks
    assert large <= 1.1 * small, peaks
