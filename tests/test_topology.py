import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from threesphere import topology
from threesphere.algebra import (
    RIGHT_HANDED,
    EvenElement,
    Vector3,
    dual_bivector,
    even_product,
    geometric_product,
)
from threesphere.protocol import stream_uniform
from threesphere.topology import (
    NorthPoleError,
    PlanePoint,
    S2Point,
    factorize_s3_point,
    is_equatorial,
    is_unit_s3,
    s2_nonclosure_witness,
    stereographic_project,
    stereographic_unproject,
)

ROOT_HALF = math.sqrt(2.0) / 2.0


def gap(lhs, rhs):
    return max(abs(a - b) for a, b in zip(lhs.coeffs, rhs.coeffs))


def random_unit_vector(rng):
    v = rng.standard_normal(3)
    return Vector3(*(v / np.linalg.norm(v)))


def random_unit_even(rng):
    w = rng.standard_normal(4)
    w /= np.sqrt(w @ w)
    return EvenElement(*w)


# ---------------------------------------------------------------------------
# Membership predicates
# ---------------------------------------------------------------------------


def test_unit_scalar_is_on_the_sphere():
    assert is_unit_s3(EvenElement(1, 0, 0, 0), 1e-12)


def test_mixed_unit_element_is_on_the_sphere():
    assert is_unit_s3(EvenElement(ROOT_HALF, 0.0, 0.0, ROOT_HALF), 1e-12)


def test_scalar_two_is_off_the_sphere():
    assert not is_unit_s3(EvenElement(2, 0, 0, 0), 1e-12)


def test_pure_unit_bivector_is_equatorial():
    assert is_equatorial(EvenElement(0.0, 0.0, 0.0, 1.0), 1e-12)


def test_pure_scalar_is_a_pole_not_equatorial():
    assert not is_equatorial(EvenElement(1, 0, 0, 0), 1e-12)


def test_every_unit_dual_is_equatorial():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = random_unit_vector(rng)
        assert is_equatorial(dual_bivector(RIGHT_HANDED, v), 1e-12)


@pytest.mark.parametrize("tol", [0.0, -1e-9])
def test_membership_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        is_unit_s3(EvenElement(1, 0, 0, 0), tol)
    with pytest.raises(ValueError):
        is_equatorial(EvenElement(1, 0, 0, 0), tol)


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


def test_identity_factors_into_an_inverse_pair():
    q, q_inv = factorize_s3_point(EvenElement(1, 0, 0, 0), 2, seed=5)
    assert gap(even_product(q, q_inv), EvenElement(1, 0, 0, 0)) < 1e-12


def test_single_factor_is_the_target_itself():
    target = EvenElement(0.0, 0.0, 0.0, 1.0)
    assert factorize_s3_point(target, 1, seed=0) == [target]


def test_factorizations_multiply_back_to_the_target():
    rng = np.random.default_rng(1)
    for i in range(200):
        target = random_unit_even(rng)
        count = 1 + i % 8
        factors = factorize_s3_point(target, count, seed=i)
        assert len(factors) == count
        product = factors[0]
        for f in factors[1:]:
            product = even_product(product, f)
        assert gap(product, target) <= 1e-9
        for f in factors:
            assert abs(f.norm_squared() - 1.0) <= 1e-12


def test_factorization_is_deterministic_per_seed():
    target = random_unit_even(np.random.default_rng(2))
    assert factorize_s3_point(target, 4, seed=9) == factorize_s3_point(target, 4, seed=9)
    assert factorize_s3_point(target, 4, seed=9) != factorize_s3_point(target, 4, seed=10)


def test_factorization_rejects_bad_input():
    with pytest.raises(ValueError):
        factorize_s3_point(EvenElement(1, 0, 0, 0), 0, seed=0)
    with pytest.raises(ValueError):
        factorize_s3_point(EvenElement(2, 0, 0, 0), 3, seed=0)


# ---------------------------------------------------------------------------
# Unit-row sampler
# ---------------------------------------------------------------------------

SAMPLED = 2**16
# E[x^4] of one coordinate of a uniform point of the sphere in n dimensions is
# 3 / (n (n + 2)), and E[x^2] is 1 / n; each bound is 6 standard errors at 2**16 rows.
FOURTH = {3: (1 / 5, 0.0063), 4: (1 / 8, 0.0046)}
SECOND = {3: (1 / 3, 0.0070), 4: (1 / 4, 0.0059)}


def moment_gap(rows, power, width):
    expected, bound = (FOURTH if power == 4 else SECOND)[width]
    gap = float(np.max(np.abs(np.mean(rows**power, axis=0) - expected)))
    return gap, gap <= bound


def cube_rows(seed, lane, width, count):
    """A wrong sampler: points of the cube (-1, 1)^width pushed out onto the sphere."""
    rows = 2.0 * stream_uniform(seed, lane, 0, width * count).reshape(count, width) - 1.0
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.mark.parametrize("width", [3, 4])
def test_unit_rows_lie_on_the_sphere(width):
    rows = topology._random_unit_rows(17, 2, width, SAMPLED)
    assert rows.shape == (SAMPLED, width)
    assert float(np.max(np.abs(np.sum(rows * rows, axis=1) - 1.0))) <= 1e-15


@pytest.mark.parametrize("width", [3, 4])
def test_unit_rows_have_the_fourth_moments_of_the_uniform_sphere(width):
    rows = topology._random_unit_rows(17, 2, width, SAMPLED)
    assert moment_gap(rows, 4, width)[1], moment_gap(rows, 4, width)
    assert moment_gap(rows, 2, width)[1]


@pytest.mark.parametrize("width, reads", [(3, 0.180), (4, 0.107)])
def test_normalized_cube_points_pass_the_second_moment_and_fail_the_fourth(width, reads):
    rows = cube_rows(17, 2, width, SAMPLED)
    assert moment_gap(rows, 2, width)[1]
    gap, passed = moment_gap(rows, 4, width)
    assert not passed
    assert np.allclose(np.mean(rows**4, axis=0), reads, atol=0.003)


@pytest.mark.parametrize("width", [3, 4])
def test_a_rejection_shortfall_raises_after_the_bounded_retry(monkeypatch, width):
    """Pairs that never fall inside the disk end the draw after at most 2n + 64 pairs."""
    pairs = []

    def outside(seed, lane, start, count):
        pairs.append(count // 2)
        return np.full(count, 0.99)  # every pair maps to (0.98, 0.98), outside the disk

    monkeypatch.setattr(topology, "stream_uniform", outside)
    count = 3000
    with pytest.raises(ArithmeticError, match="disk points missing"):
        topology._random_unit_rows(1, 2, width, count)
    points = count * (width - 2)
    assert sum(pairs) >= 2 * points + 64 and sum(pairs) - pairs[-1] < 2 * points + 64


# ---------------------------------------------------------------------------
# Non-closure of the equator
# ---------------------------------------------------------------------------


def test_witness_for_identical_directions():
    w = s2_nonclosure_witness(Vector3(1, 0, 0), Vector3(1, 0, 0))
    assert w.s == -1.0


def test_witness_for_orthogonal_directions_stays_equatorial():
    w = s2_nonclosure_witness(Vector3(1, 0, 0), Vector3(0, 1, 0))
    assert w.s == 0.0
    assert is_equatorial(w, 1e-12)


def test_witness_for_oblique_directions():
    a = Vector3(1.0, 0.0, 0.0)
    b = Vector3(ROOT_HALF, ROOT_HALF, 0.0)
    w = s2_nonclosure_witness(a, b)
    assert abs(w.s + ROOT_HALF) <= 1e-12
    # same value through the full geometric product
    full = geometric_product(
        dual_bivector(RIGHT_HANDED, a).embed(), dual_bivector(RIGHT_HANDED, b).embed()
    )
    assert abs(full.coeffs[0] - w.s) <= 1e-12


def test_witness_scalar_equals_minus_dot_product():
    rng = np.random.default_rng(3)
    for _ in range(500):
        a, b = random_unit_vector(rng), random_unit_vector(rng)
        dot = a.x * b.x + a.y * b.y + a.z * b.z
        assert abs(s2_nonclosure_witness(a, b).s + dot) <= 1e-12


def test_products_of_unit_elements_stay_on_the_sphere():
    rng = np.random.default_rng(4)
    for _ in range(500):
        p, q = random_unit_even(rng), random_unit_even(rng)
        assert abs(even_product(p, q).norm_squared() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Stereographic projection
# ---------------------------------------------------------------------------


def test_south_pole_maps_to_origin():
    assert stereographic_project(S2Point(0.0, 0.0, -1.0)) == PlanePoint(0.0, 0.0)


def test_equator_is_fixed_by_the_projection():
    assert stereographic_project(S2Point(1.0, 0.0, 0.0)) == PlanePoint(1.0, 0.0)


def test_north_pole_is_rejected():
    with pytest.raises(NorthPoleError):
        stereographic_project(S2Point(0.0, 0.0, 1.0))


def test_near_pole_is_rejected():
    z = 1.0 - 1e-13
    r = math.sqrt(1.0 - z * z)
    with pytest.raises(NorthPoleError):
        stereographic_project(S2Point(r, 0.0, z))


def test_unproject_examples():
    assert stereographic_unproject(PlanePoint(0.0, 0.0)) == S2Point(0.0, 0.0, -1.0)
    assert stereographic_unproject(PlanePoint(1.0, 0.0)) == S2Point(1.0, 0.0, 0.0)


def test_unproject_lands_on_the_sphere():
    rng = np.random.default_rng(5)
    for _ in range(500):
        u, v = rng.uniform(-50.0, 50.0, 2)
        p = stereographic_unproject(PlanePoint(u, v))
        # S2Point construction already enforces unit norm at 1e-12
        assert abs(p.x * p.x + p.y * p.y + p.z * p.z - 1.0) <= 1e-12


def test_round_trip_on_the_sphere():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 1000:
        w = rng.standard_normal(3)
        w /= np.sqrt(w @ w)
        if w[2] > 1.0 - 1e-6:
            continue
        p = S2Point(*w)
        back = stereographic_unproject(stereographic_project(p))
        assert max(abs(back.x - p.x), abs(back.y - p.y), abs(back.z - p.z)) <= 1e-12
        checked += 1


# Far from the origin the image crowds against the pole and the division
# by 1-z amplifies rounding like r^2/2, so the plane-side round trip is
# only well conditioned on a moderate disk; the sphere-side round trip
# above is the tight contract.
@given(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)
def test_plane_round_trip(u, v):
    back = stereographic_project(stereographic_unproject(PlanePoint(u, v)))
    assert math.isclose(back.u, u, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(back.v, v, rel_tol=1e-9, abs_tol=1e-9)


def test_s2point_rejects_off_sphere_coordinates():
    with pytest.raises(ValueError):
        S2Point(0.5, 0.5, 0.5)


def test_s2point_from_direction_normalizes():
    p = S2Point.from_direction(3.0, 4.0, 0.0)
    assert math.isclose(p.x, 0.6) and math.isclose(p.y, 0.8)
    with pytest.raises(ValueError):
        S2Point.from_direction(0.0, 0.0, 0.0)


def test_plane_point_must_be_finite():
    with pytest.raises(ValueError):
        PlanePoint(math.nan, 0.0)
    with pytest.raises(ValueError):
        PlanePoint(0.0, math.inf)
