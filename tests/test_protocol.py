import math
import tracemalloc

import numpy as np
import pytest

from threesphere.algebra import (
    LEFT_HANDED,
    RIGHT_HANDED,
    EvenElement,
    Handedness,
    oriented_even_product,
)
from threesphere.protocol import (
    SIGN_CHUNK,
    HandednessStream,
    PolarizerAngle,
    SimulationConfig,
    alice_outcome,
    bob_outcome,
    handedness_sign_sum,
    handedness_signs,
    joint_product_closed_form,
    polarizer_axis,
    run_trials,
    sample_handedness,
)
from threesphere.topology import is_equatorial, is_unit_s3

ROOT_HALF = math.sqrt(2.0) / 2.0
BOTH = (RIGHT_HANDED, LEFT_HANDED)


def gap(lhs, rhs):
    return max(abs(a - b) for a, b in zip(lhs.coeffs, rhs.coeffs))


# ---------------------------------------------------------------------------
# Polarizer axis and outcomes
# ---------------------------------------------------------------------------


def test_axis_at_zero_points_along_y():
    axis = polarizer_axis(PolarizerAngle(0.0))
    assert (axis.x, axis.y, axis.z) == (0.0, 1.0, 0.0)


def test_axis_at_quarter_turn_points_along_x():
    axis = polarizer_axis(PolarizerAngle(math.pi / 4.0))
    assert abs(axis.x - 1.0) <= 1e-15 and abs(axis.y) <= 1e-15 and axis.z == 0.0


def test_axis_at_eighth_turn_is_diagonal():
    axis = polarizer_axis(PolarizerAngle(math.pi / 8.0))
    assert abs(axis.x - ROOT_HALF) <= 1e-15
    assert abs(axis.y - ROOT_HALF) <= 1e-15
    assert axis.z == 0.0
    assert abs(axis.norm() - 1.0) <= 1e-15


def test_first_station_outcome_at_zero():
    assert alice_outcome(PolarizerAngle(0.0), RIGHT_HANDED) == EvenElement(0, 0, 1, 0)
    assert alice_outcome(PolarizerAngle(0.0), LEFT_HANDED) == EvenElement(0, 0, -1, 0)


def test_first_station_outcome_at_quarter_turn():
    outcome = alice_outcome(PolarizerAngle(math.pi / 4.0), RIGHT_HANDED)
    assert gap(outcome, EvenElement(0, 1, 0, 0)) <= 1e-15


def test_second_station_is_the_negated_first():
    assert bob_outcome(PolarizerAngle(0.0), RIGHT_HANDED) == EvenElement(0, 0, -1, 0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        theta = PolarizerAngle(rng.uniform(-7.0, 7.0))
        for handed in BOTH:
            assert bob_outcome(theta, handed) == -alice_outcome(theta, handed)


def test_outcomes_are_equatorial_unit_bivectors():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        theta = PolarizerAngle(rng.uniform(-2 * math.pi, 2 * math.pi))
        handed = BOTH[int(rng.integers(2))]
        assert is_equatorial(alice_outcome(theta, handed), 1e-12)


def test_outcomes_have_half_turn_period():
    rng = np.random.default_rng(2)
    for _ in range(500):
        t = rng.uniform(-2 * math.pi, 2 * math.pi)
        for handed in BOTH:
            a = alice_outcome(PolarizerAngle(t), handed)
            b = alice_outcome(PolarizerAngle(t + math.pi), handed)
            assert gap(a, b) <= 1e-12


def test_angle_must_be_finite():
    with pytest.raises(ValueError):
        PolarizerAngle(math.nan)


def test_degree_conversion():
    assert PolarizerAngle.from_degrees(45.0).radians == math.radians(45.0)
    assert PolarizerAngle.from_degrees(45.0).degrees == pytest.approx(45.0)


# ---------------------------------------------------------------------------
# Joint product closed form
# ---------------------------------------------------------------------------


def test_equal_angles_give_the_scalar_one():
    for handed in BOTH:
        product = joint_product_closed_form(PolarizerAngle(0.3), PolarizerAngle(0.3), handed)
        assert product == EvenElement.scalar(1.0)


def test_eighth_turn_offset_gives_a_pure_bivector():
    product = joint_product_closed_form(PolarizerAngle(math.pi / 4.0), PolarizerAngle(0.0), RIGHT_HANDED)
    assert abs(product.s) <= 1e-15
    assert gap(product, EvenElement(0, 0, 0, 1)) <= 1e-15


def test_sixteenth_turn_offset_splits_evenly():
    closed = joint_product_closed_form(PolarizerAngle(math.pi / 8.0), PolarizerAngle(0.0), RIGHT_HANDED)
    assert abs(closed.s - ROOT_HALF) <= 1e-15
    assert abs(closed.b_xy - ROOT_HALF) <= 1e-15
    # confirmed along the full outcome-product route
    direct = oriented_even_product(
        RIGHT_HANDED,
        alice_outcome(PolarizerAngle(math.pi / 8.0), RIGHT_HANDED),
        bob_outcome(PolarizerAngle(0.0), RIGHT_HANDED),
    )
    assert gap(closed, direct) <= 1e-12


def test_closed_form_matches_direct_product_on_a_grid():
    grid = np.linspace(0.0, math.pi, 25)
    worst = 0.0
    for a in grid:
        alpha = PolarizerAngle(a)
        for b in grid:
            beta = PolarizerAngle(b)
            for handed in BOTH:
                direct = oriented_even_product(
                    handed, alice_outcome(alpha, handed), bob_outcome(beta, handed)
                )
                worst = max(worst, gap(direct, joint_product_closed_form(alpha, beta, handed)))
    assert worst <= 1e-12


def test_products_stay_on_the_unit_sphere():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        alpha = PolarizerAngle(rng.uniform(-7, 7))
        beta = PolarizerAngle(rng.uniform(-7, 7))
        handed = BOTH[int(rng.integers(2))]
        product = oriented_even_product(
            handed, alice_outcome(alpha, handed), bob_outcome(beta, handed)
        )
        assert is_unit_s3(product, 1e-12)


# ---------------------------------------------------------------------------
# Orientation stream
# ---------------------------------------------------------------------------


def test_stream_is_deterministic():
    assert (handedness_signs(123, 256) == handedness_signs(123, 256)).all()


def test_stream_values_are_signs():
    signs = handedness_signs(0, 1000)
    assert set(np.unique(signs)) <= {-1, 1}


def test_stream_blocks_concatenate():
    whole = handedness_signs(99, 100)
    parts = np.concatenate(
        [handedness_signs(99, 30), handedness_signs(99, 50, start=30), handedness_signs(99, 20, start=80)]
    )
    assert (whole == parts).all()


def test_distinct_seeds_differ_within_64_draws():
    for a, b in [(0, 1), (1, 2), (12345, 54321), (2**63, 2**63 + 1), (-1, 1)]:
        assert (handedness_signs(a, 64) != handedness_signs(b, 64)).any()


def test_stream_is_balanced_at_a_million_draws():
    signs = handedness_signs(7, 10**6)
    frequency = float((signs > 0).mean())
    assert abs(frequency - 0.5) <= 4.0 / math.sqrt(10**6)


def test_negative_count_is_rejected():
    with pytest.raises(ValueError):
        handedness_signs(0, -1)


@pytest.mark.parametrize(
    "count", [0, 1, SIGN_CHUNK - 1, SIGN_CHUNK, SIGN_CHUNK + 1, 3 * SIGN_CHUNK + 5]
)
@pytest.mark.parametrize("seed, start", [(2**63 + 12345, 2**40 + 3), (2**64 - 1, 0), (-5, 17)])
def test_sign_sum_equals_the_summed_sign_array(count, seed, start):
    expected = int(handedness_signs(seed, count, start=start).sum())
    assert handedness_sign_sum(seed, count, start=start) == expected


def test_sign_sum_of_adjacent_blocks_adds_up():
    whole = handedness_sign_sum(99, 5 * SIGN_CHUNK + 7)
    first = handedness_sign_sum(99, SIGN_CHUNK + 3)
    assert first + handedness_sign_sum(99, 4 * SIGN_CHUNK + 4, start=SIGN_CHUNK + 3) == whole


def test_sign_sum_memory_is_flat_in_the_count():
    def peak(count):
        tracemalloc.start()
        try:
            handedness_sign_sum(3, count)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10**6), peak(10**7)
    assert large < 4 * 2**20
    assert abs(large - small) <= 0.1 * small


def test_sign_sum_rejects_a_negative_count():
    with pytest.raises(ValueError):
        handedness_sign_sum(0, -1)


def test_stream_object_walks_the_same_sequence():
    stream = HandednessStream(seed=42)
    collected = [sample_handedness(stream) for _ in range(32)]
    expected = handedness_signs(42, 32)
    assert all(isinstance(h, Handedness) for h in collected)
    assert [h.sign for h in collected] == list(expected)
    assert stream.position == 32
    # bulk draws continue from the same position
    stream2 = HandednessStream(seed=42)
    assert (stream2.take(32) == expected).all()


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


def test_single_trial_at_equal_angles_yields_the_scalar_one():
    config = SimulationConfig(
        trial_count=1, seed=3, angles=((PolarizerAngle(0.0), PolarizerAngle(0.0)),)
    )
    (record,) = run_trials(config)
    assert record.product == EvenElement.scalar(1.0)


def test_runs_are_bit_identical_for_a_fixed_seed():
    config = SimulationConfig(
        trial_count=4, seed=17, angles=((PolarizerAngle(0.1), PolarizerAngle(0.7)),)
    )
    assert run_trials(config) == run_trials(config)


def test_every_record_scalar_part_is_orientation_free():
    config = SimulationConfig(
        trial_count=1000, seed=5, angles=((PolarizerAngle(math.pi / 8.0), PolarizerAngle(0.0)),)
    )
    records = run_trials(config)
    assert len(records) == 1000
    signs = {r.handedness.sign for r in records}
    assert signs == {1, -1}
    for record in records:
        assert abs(record.product.s - ROOT_HALF) <= 1e-15
        assert is_unit_s3(record.product, 1e-12)
        assert is_equatorial(record.outcome_a, 1e-12)
        assert is_equatorial(record.outcome_b, 1e-12)


def test_each_angle_pair_uses_its_own_stream_block():
    pair_a = (PolarizerAngle(0.2), PolarizerAngle(0.9))
    pair_b = (PolarizerAngle(1.1), PolarizerAngle(0.4))
    config = SimulationConfig(trial_count=8, seed=21, angles=(pair_a, pair_b))
    records = run_trials(config)
    signs = handedness_signs(21, 16)
    assert [r.handedness.sign for r in records] == list(signs)
    assert all(r.alpha == pair_a[0] for r in records[:8])
    assert all(r.alpha == pair_b[0] for r in records[8:])


def test_config_validation():
    pair = (PolarizerAngle(0.0), PolarizerAngle(0.0))
    with pytest.raises(ValueError):
        SimulationConfig(trial_count=0, seed=0, angles=(pair,))
    with pytest.raises(ValueError):
        SimulationConfig(trial_count=1, seed=0, angles=())
    with pytest.raises(ValueError):
        SimulationConfig(trial_count=1, seed=0, angles=((0.0, 1.0),))
