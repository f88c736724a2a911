import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from threesphere.algebra import (
    E_X,
    E_XY,
    E_Y,
    E_YZ,
    E_Z,
    E_ZX,
    LEFT_HANDED,
    ONE,
    PSEUDOSCALAR,
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

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def gap(lhs, rhs):
    return max(abs(a - b) for a, b in zip(lhs.coeffs, rhs.coeffs))


def random_multivector(rng, scale=1.0):
    return Multivector(tuple(rng.uniform(-scale, scale, 8)))


def vector(x, y, z):
    return x * E_X + y * E_Y + z * E_Z


# ---------------------------------------------------------------------------
# Independent oracle: the algebra is faithfully represented by 2x2 complex
# matrices with the three generators sent to the Pauli matrices.  Products
# of multivectors must match matrix products under this map.
# ---------------------------------------------------------------------------

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_ID = np.eye(2, dtype=complex)
_REP = (
    _ID,
    _SX,
    _SY,
    _SZ,
    _SY @ _SZ,
    _SZ @ _SX,
    _SX @ _SY,
    _SX @ _SY @ _SZ,
)


def to_matrix(m):
    return sum(c * r for c, r in zip(m.coeffs, _REP))


def from_matrix(matrix):
    # The eight matrices are orthonormal under Re(tr(a^H b))/2; the
    # imaginary part pairs each blade with its volume-element dual.
    coeffs = [float((np.trace(r.conj().T @ matrix) / 2.0).real) for r in _REP]
    return Multivector(tuple(coeffs))


def test_matrix_representation_is_faithful():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = random_multivector(rng, scale=5.0)
        assert gap(from_matrix(to_matrix(m)), m) < 1e-12


def test_geometric_product_matches_matrix_oracle():
    rng = np.random.default_rng(1)
    for _ in range(500):
        a = random_multivector(rng, scale=3.0)
        b = random_multivector(rng, scale=3.0)
        oracle = from_matrix(to_matrix(a) @ to_matrix(b))
        assert gap(geometric_product(a, b), oracle) < 1e-12


# ---------------------------------------------------------------------------
# Fundamental products
# ---------------------------------------------------------------------------


def test_vector_squares_to_scalar_one():
    assert geometric_product(E_X, E_X) == ONE


def test_orthogonal_vectors_multiply_to_their_bivector():
    assert geometric_product(E_X, E_Y) == E_XY
    assert geometric_product(E_Y, E_Z) == E_YZ
    assert geometric_product(E_Z, E_X) == E_ZX


def test_star_scales_a_multivector_but_is_not_a_product():
    with pytest.raises(TypeError):
        E_X * E_Y
    assert 2 * E_X == E_X * 2 == Multivector((0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))


def test_volume_element_squares_to_minus_one():
    expected = -1.0 * ONE
    assert geometric_product(PSEUDOSCALAR, PSEUDOSCALAR) == expected
    # independent route through the matrix representation
    oracle = from_matrix(to_matrix(PSEUDOSCALAR) @ to_matrix(PSEUDOSCALAR))
    assert gap(oracle, expected) < 1e-12


def test_volume_times_vectors_gives_dual_bivectors():
    assert geometric_product(PSEUDOSCALAR, E_X) == E_YZ
    assert geometric_product(PSEUDOSCALAR, E_Y) == E_ZX
    assert geometric_product(PSEUDOSCALAR, E_Z) == E_XY


def test_associativity_on_random_triples():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        m, n, p = (random_multivector(rng, scale=10.0) for _ in range(3))
        left = geometric_product(geometric_product(m, n), p)
        right = geometric_product(m, geometric_product(n, p))
        worst = max(worst, gap(left, right))
    assert worst <= 1e-10


def test_product_is_bilinear():
    rng = np.random.default_rng(3)
    a, b, c = (random_multivector(rng) for _ in range(3))
    lhs = geometric_product(a + b, c)
    rhs = geometric_product(a, c) + geometric_product(b, c)
    assert gap(lhs, rhs) < 1e-12


# ---------------------------------------------------------------------------
# Wedge
# ---------------------------------------------------------------------------


def test_wedge_of_vector_with_itself_vanishes():
    assert wedge(E_X, E_X) == 0.0 * ONE


def test_wedge_of_orthogonal_vectors():
    assert wedge(E_X, E_Y) == E_XY


def test_wedge_raises_bivector_and_vector_to_volume():
    assert wedge(E_XY, E_Z) == PSEUDOSCALAR


def test_wedge_is_antisymmetrized_product_for_vectors():
    rng = np.random.default_rng(4)
    for _ in range(200):
        u = vector(*rng.standard_normal(3))
        v = vector(*rng.standard_normal(3))
        anti = (geometric_product(u, v) + -1.0 * geometric_product(v, u)) * 0.5
        assert gap(wedge(u, v), anti) < 1e-12


_GRADES = np.array([0, 1, 1, 1, 2, 2, 2, 3])


def grade_part(m, k):
    """The grade-``k`` coefficients of ``m``, the others zeroed."""
    return Multivector(np.where(_GRADES == k, m.coeffs, 0.0))


def test_wedge_keeps_only_grade_raising_terms():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = random_multivector(rng)
        b = random_multivector(rng)
        expected = 0.0 * ONE
        for r in range(4):
            for s in range(4):
                if r + s > 3:
                    continue
                part = from_matrix(to_matrix(grade_part(a, r)) @ to_matrix(grade_part(b, s)))
                expected = expected + grade_part(part, r + s)
        assert gap(wedge(a, b), expected) < 1e-12


def test_multivector_needs_eight_coefficients():
    with pytest.raises(ValueError):
        Multivector((1.0, 2.0))


# ---------------------------------------------------------------------------
# Orientation and duals
# ---------------------------------------------------------------------------


def test_handedness_allows_only_two_values():
    with pytest.raises(ValueError):
        Handedness(0)
    with pytest.raises(ValueError):
        Handedness(2)


def test_dual_bivector_of_z_axis():
    assert dual_bivector(RIGHT_HANDED, Vector3(0.0, 0.0, 1.0)) == EvenElement(0, 0, 0, 1)
    assert dual_bivector(LEFT_HANDED, Vector3(0.0, 0.0, 1.0)) == EvenElement(0, 0, 0, -1)


def test_dual_bivector_componentwise():
    q = dual_bivector(RIGHT_HANDED, Vector3(0.6, 0.8, 0.0))
    assert q == EvenElement(0.0, 0.6, 0.8, 0.0)


def test_dual_bivector_accepts_zero_vector():
    assert dual_bivector(RIGHT_HANDED, Vector3(0.0, 0.0, 0.0)) == EvenElement(0, 0, 0, 0)


@given(finite, finite, finite)
def test_dual_flip_is_exact(x, y, z):
    v = Vector3(x, y, z)
    assert dual_bivector(LEFT_HANDED, v) == -dual_bivector(RIGHT_HANDED, v)


def test_dual_matches_volume_product():
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = Vector3(*rng.standard_normal(3))
        embedded = geometric_product(PSEUDOSCALAR, vector(v.x, v.y, v.z))
        assert gap(dual_bivector(RIGHT_HANDED, v).embed(), embedded) < 1e-12


# ---------------------------------------------------------------------------
# Even subalgebra
# ---------------------------------------------------------------------------


def test_even_basis_product_rules():
    ix = dual_bivector(RIGHT_HANDED, Vector3(1, 0, 0))
    iy = dual_bivector(RIGHT_HANDED, Vector3(0, 1, 0))
    iz = dual_bivector(RIGHT_HANDED, Vector3(0, 0, 1))
    assert even_product(ix, ix) == EvenElement(-1, 0, 0, 0)
    assert even_product(ix, iy) == -iz


@given(finite, finite, finite, finite)
def test_scalar_one_is_identity(s, byz, bzx, bxy):
    q = EvenElement(s, byz, bzx, bxy)
    assert even_product(EvenElement(1, 0, 0, 0), q) == q
    assert even_product(q, EvenElement(1, 0, 0, 0)) == q


EVEN_SLOTS = [0, 4, 5, 6]  # scalar and bivector coefficients of a Multivector


def test_embed_roundtrip_is_identity():
    rng = np.random.default_rng(8)
    for _ in range(100):
        q = EvenElement(*rng.standard_normal(4))
        coeffs = np.array(q.embed().coeffs)
        assert EvenElement(*coeffs[EVEN_SLOTS]) == q
        assert not coeffs[[1, 2, 3, 7]].any()


def test_even_product_agrees_with_embedded_geometric_product():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        p = EvenElement(*rng.standard_normal(4))
        q = EvenElement(*rng.standard_normal(4))
        full = geometric_product(p.embed(), q.embed())
        # closure: no odd-grade part appears
        assert max(abs(full.coeffs[i]) for i in (1, 2, 3, 7)) <= 1e-12
        assert gap(even_product(p, q), EvenElement(*np.array(full.coeffs)[EVEN_SLOTS])) <= 1e-12


def test_norm_is_multiplicative():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        p = EvenElement(*rng.standard_normal(4))
        q = EvenElement(*rng.standard_normal(4))
        assert abs(even_product(p, q).norm() - p.norm() * q.norm()) <= 1e-12


def test_oriented_product_reduces_to_canonical_for_right_handed():
    rng = np.random.default_rng(12)
    for _ in range(200):
        p = EvenElement(*rng.standard_normal(4))
        q = EvenElement(*rng.standard_normal(4))
        assert oriented_even_product(RIGHT_HANDED, p, q) == even_product(p, q)


def test_left_handed_product_is_conjugated_by_bivector_flip():
    def flip(e):
        return EvenElement(e.s, -e.b_yz, -e.b_zx, -e.b_xy)

    rng = np.random.default_rng(13)
    for _ in range(200):
        p = EvenElement(*rng.standard_normal(4))
        q = EvenElement(*rng.standard_normal(4))
        direct = oriented_even_product(LEFT_HANDED, p, q)
        conjugated = flip(even_product(flip(p), flip(q)))
        assert gap(direct, conjugated) < 1e-12


# ---------------------------------------------------------------------------
# Oriented bivector identity
# ---------------------------------------------------------------------------


def test_identity_residual_for_repeated_direction():
    r = bivector_identity_residual(RIGHT_HANDED, Vector3(1, 0, 0), Vector3(1, 0, 0))
    assert max(abs(c) for c in r.coeffs) == 0.0


def test_identity_residual_for_orthogonal_directions():
    r = bivector_identity_residual(RIGHT_HANDED, Vector3(1, 0, 0), Vector3(0, 1, 0))
    assert max(abs(c) for c in r.coeffs) == 0.0


def test_identity_residual_vanishes_for_both_orientations():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        a = Vector3(*rng.standard_normal(3))
        b = Vector3(*rng.standard_normal(3))
        for handed in (RIGHT_HANDED, LEFT_HANDED):
            r = bivector_identity_residual(handed, a, b)
            assert max(abs(c) for c in r.coeffs) <= 1e-12


def test_identity_residual_matches_full_algebra_route():
    # In the full algebra the same statement reads:
    # (volume*a)(volume*b) + a.b + a^b == 0, whichever orientation the
    # volume element carries.
    rng = np.random.default_rng(15)
    for _ in range(300):
        a = Vector3(*rng.standard_normal(3))
        b = Vector3(*rng.standard_normal(3))
        va, vb = vector(a.x, a.y, a.z), vector(b.x, b.y, b.z)
        for handed in (RIGHT_HANDED, LEFT_HANDED):
            volume = handed.sign * PSEUDOSCALAR
            dual_a = geometric_product(volume, va)
            dual_b = geometric_product(volume, vb)
            full = (
                geometric_product(dual_a, dual_b)
                + (a.x * b.x + a.y * b.y + a.z * b.z) * ONE
                + wedge(va, vb)
            )
            assert max(abs(c) for c in full.coeffs) <= 1e-12
            even_route = bivector_identity_residual(handed, a, b)
            assert gap(even_route.embed(), full) <= 1e-12
