import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from threesphere.algebra import (
    LEFT_HANDED,
    RIGHT_HANDED,
    EvenElement,
    oriented_even_product,
)
from threesphere import protocol
from threesphere.protocol import (
    SIGN_CHUNK,
    PolarizerAngle,
    alice_outcome,
    bob_outcome,
    handedness_sign_sum,
    handedness_signs,
    joint_product_closed_form,
    polarizer_axis,
    run_trials,
    stream_summary,
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
    assert abs(math.hypot(axis.x, axis.y, axis.z) - 1.0) <= 1e-15


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
        assert product == EvenElement(1, 0, 0, 0)


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

MASK64 = (1 << 64) - 1


def splitmix64(seed, position):
    """Output ``position`` of splitmix64 seeded with ``seed``, in plain Python ints."""
    z = (seed + (position + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def test_reference_mixer_gives_the_published_seed_zero_outputs():
    # The first outputs of Vigna's splitmix64.c for a zero state.
    assert [splitmix64(0, i) for i in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
    ]
    assert handedness_signs(0, 3).tolist() == [-1, 1, 1]


@pytest.mark.parametrize("seed, start", [(2**64 - 1, 0), (-5, 17), (2**63 + 12345, 2**40 + 3)])
def test_both_views_match_the_reference_mixer(seed, start):
    counts = (1, SIGN_CHUNK - 1, SIGN_CHUNK + 1, 3 * SIGN_CHUNK + 5)
    expected = [1 - 2 * (splitmix64(seed, start + i) >> 63) for i in range(max(counts))]
    for count in counts:
        assert handedness_signs(seed, count, start=start).tolist() == expected[:count]
        assert handedness_sign_sum(seed, count, start=start) == sum(expected[:count])


def test_both_views_read_the_sign_of_nan_bit_patterns():
    """The pass reads the top bit as the sign bit of a float64 view; words whose exponent
    bits are all set are NaNs there, and must still give their sign without a float error."""
    seed, start, count = 0, 3760, 100
    words = [splitmix64(seed, start + i) for i in range(count)]
    nans = [w >> 63 for w in words if (w >> 52) & 0x7FF == 0x7FF]
    assert 1 in nans and 0 in nans  # draws 3763 and 3841: a negative and a positive NaN
    assert all(np.isnan(np.uint64(w).view(np.float64)) for w in words if (w >> 52) & 0x7FF == 0x7FF)
    expected = [1 - 2 * (w >> 63) for w in words]
    with np.errstate(all="raise"):
        assert handedness_signs(seed, count, start=start).tolist() == expected
        assert handedness_sign_sum(seed, count, start=start) == sum(expected)
        for offset in (0, 3, 81):  # windows that open on the negative or the positive NaN
            assert handedness_sign_sum(seed, count - offset, start=start + offset) == sum(expected[offset:])


def test_both_views_reject_a_negative_start_and_wrap_at_the_period():
    for view in (handedness_signs, handedness_sign_sum):
        with pytest.raises(ValueError):
            view(1, 10, start=-1)
    for start in (2**63 + 5, 2**64):
        assert int(handedness_signs(1, 10, start=start).sum()) == handedness_sign_sum(1, 10, start=start)
    assert np.array_equal(handedness_signs(1, 10, start=2**64), handedness_signs(1, 10))
    assert handedness_sign_sum(1, 10, start=2**64) == handedness_sign_sum(1, 10)
    across = [1 - 2 * (splitmix64(1, 2**64 - 3 + i) >> 63) for i in range(6)]
    assert handedness_signs(1, 6, start=2**64 - 3).tolist() == across


@pytest.mark.parametrize(
    "seed", [np.int64(5), np.int64(2**63 - 1), np.uint64(2**64 - 1), np.int32(5)], ids=repr
)
def test_numpy_integer_seeds_draw_the_stream_of_the_equal_int(seed, monkeypatch):
    count = SIGN_CHUNK + 5
    for start in (0, np.int64(SIGN_CHUNK - 2)):
        expected = handedness_signs(int(seed), count, int(start))
        assert np.array_equal(handedness_signs(seed, np.int64(count), start), expected)
        assert handedness_sign_sum(seed, np.int64(count), start) == int(expected.sum())
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 2)
    assert stream_summary(count, 2)["shards"] == 2
    assert handedness_sign_sum(seed, count, threads=2) == handedness_sign_sum(int(seed), count)


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


def traced_peak(view, count):
    tracemalloc.start()
    try:
        view(3, count)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sign_sum_memory_is_flat_in_the_count():
    small, large = traced_peak(handedness_sign_sum, 10**6), traced_peak(handedness_sign_sum, 10**7)
    assert large < 4 * 2**20
    assert abs(large - small) <= 0.1 * small


@pytest.mark.parametrize("count", [10**6, 4 * 10**6])
def test_sign_array_costs_its_result_plus_fixed_buffers(count):
    assert traced_peak(handedness_signs, count) <= 8 * count + 4 * 2**20


@pytest.mark.parametrize("count", [10**6, 4 * 10**6])
def test_stream_words_cost_their_result_plus_one_scratch_chunk(count):
    words = lambda seed, n: protocol.stream_words(seed, 2, 0, n)  # noqa: E731
    assert traced_peak(words, count) <= 8 * count + 2**20


def test_sign_sum_rejects_a_negative_count():
    with pytest.raises(ValueError):
        handedness_sign_sum(0, -1)


# ---------------------------------------------------------------------------
# Lanes of the stream
# ---------------------------------------------------------------------------


def mix64(z):
    """splitmix64's output mixer of one 64-bit int, in plain Python ints."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def lane_word(seed, lane, position):
    """Word ``position`` of ``lane``: lane 0 counts from the seed, lane k from a mixed key."""
    key = seed & MASK64
    if lane:
        key = mix64(key ^ mix64(lane * 0x9E3779B97F4A7C15 & MASK64))
    return splitmix64(key, position)


def test_lane_zero_words_are_the_published_seed_zero_outputs():
    assert protocol.stream_words(0, 0, 0, 3).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
    ]
    assert protocol.stream_words(0, 0, 0, 3).dtype == np.uint64


@pytest.mark.parametrize("lane", [0, 1, 3, 2**64 - 1])
@pytest.mark.parametrize("seed, start", [(2**64 - 1, 0), (-5, 17), (2**63 + 12345, 2**40 + 3)])
def test_lane_words_match_the_reference_mixer(seed, start, lane):
    count = SIGN_CHUNK + 5
    words = protocol.stream_words(seed, lane, start, count)
    picked = [0, 1, SIGN_CHUNK - 1, SIGN_CHUNK, count - 1]
    assert [int(words[i]) for i in picked] == [lane_word(seed, lane, start + i) for i in picked]


@pytest.mark.parametrize("count", [1, SIGN_CHUNK - 1, SIGN_CHUNK + 1, 3 * SIGN_CHUNK + 5])
@pytest.mark.parametrize(
    "seed, start",
    [(2**64 - 1, 0), (-5, 17), (1, 2**64 - 3), (np.uint64(2**64 - 1), np.int64(SIGN_CHUNK - 2)),
     (np.int32(5), 0)],
    ids=repr,
)
def test_lane_zero_top_bits_are_the_orientation_signs(seed, start, count):
    """Counts that end mid-chunk, a start that wraps the period, numpy-integer seeds."""
    words = protocol.stream_words(seed, 0, start, np.int64(count))
    signs = 1 - 2 * (words >> np.uint64(63)).astype(np.int64)
    assert np.array_equal(signs, handedness_signs(seed, count, start))


@pytest.mark.parametrize("lane", [0, 1, 6])
def test_words_drawn_in_pieces_equal_one_call(lane):
    cuts = [0, 3, SIGN_CHUNK - 1, SIGN_CHUNK + 2, 2 * SIGN_CHUNK, 2 * SIGN_CHUNK + 77]
    whole = protocol.stream_words(42, lane, 10, cuts[-1])
    pieces = [protocol.stream_words(42, lane, 10 + a, b - a) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(pieces), whole)


def lane_correlations(seed, lanes, n, lags):
    """Largest ``|mean(s_a[i] s_b[i + lag])|`` of the lanes' top-bit signs, over distinct pairs."""
    signs = [1 - 2 * (protocol.stream_words(seed, lane, 0, n + max(lags)) >> np.uint64(63)).astype(np.int8)
             for lane in lanes]
    worst = 0.0
    for a in range(len(lanes)):
        for b in range(a, len(lanes)):
            for lag in lags:
                if a == b and lag == 0:
                    continue
                product = signs[a][:n].astype(np.int64) @ signs[b][lag : lag + n]
                worst = max(worst, abs(int(product)) / n)
    return worst


def test_lane_sign_sums_are_uncorrelated(monkeypatch):
    n = 2**20
    assert lane_correlations(2026, range(4), n, range(3)) <= 6.0 / math.sqrt(n)
    # Lanes that shared their key would be one stream: the check reads 1 there.
    monkeypatch.setattr(protocol, "_key", lambda seed, lane: seed)
    assert lane_correlations(2026, range(2), 4096, [0]) == 1.0


def test_uniform_lies_strictly_inside_the_unit_interval():
    extremes = [0, 1, 2**12 - 1, 2**12, 2**63 - 1, 2**63, 2**64 - 2**12, 2**64 - 1]
    u = protocol._uniform(np.array(extremes, dtype=np.uint64))
    assert u.tolist() == [((w >> 12) + 0.5) * 2.0**-52 for w in extremes]
    assert u[0] == 2.0**-53 and u[-1] == 1.0 - 2.0**-53
    assert np.all((0.0 < u) & (u < 1.0)) and np.all(2.0 * u - 1.0 != 0.0)
    # The top 53 bits over 2**-53 cannot hold the top word's half step: it rounds to 1.
    assert ((2**64 - 1 >> 11) + 0.5) * 2.0**-53 == 1.0
    words = protocol.stream_words(9, 2, 5, 10**5)
    drawn = protocol.stream_uniform(9, 2, 5, 10**5)
    assert drawn.tolist() == [((int(w) >> 12) + 0.5) * 2.0**-52 for w in words]
    assert 0.0 < drawn.min() and drawn.max() < 1.0


def test_lanes_reject_an_out_of_range_lane_start_or_count():
    for lane, start, count in ((-1, 0, 1), (2**64, 0, 1), (0, -1, 1), (1, 0, -1)):
        with pytest.raises(ValueError):
            protocol.stream_words(0, lane, start, count)


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


COLUMNS = ("signs", "alpha", "beta", "outcome_a", "outcome_b", "product")


def test_single_trial_at_equal_angles_yields_the_scalar_one():
    trials = run_trials(PolarizerAngle(0.0), PolarizerAngle(0.0), 1, seed=3)
    assert trials.product.shape == (1, 4)
    assert trials.product.tolist() == [[1.0, 0.0, 0.0, 0.0]]


def test_runs_are_bit_identical_for_a_fixed_seed():
    config = (PolarizerAngle(0.1), PolarizerAngle(0.7), 4, 17)
    first, second = run_trials(*config), run_trials(*config)
    for name in COLUMNS:
        assert np.array_equal(getattr(first, name), getattr(second, name))


def test_every_record_scalar_part_is_orientation_free():
    trials = run_trials(PolarizerAngle(math.pi / 8.0), PolarizerAngle(0.0), 1000, seed=5)
    assert trials.signs.shape == (1000,) and trials.signs.dtype == np.int64
    assert set(trials.signs.tolist()) == {1, -1}
    for name in ("outcome_a", "outcome_b", "product"):
        assert getattr(trials, name).shape == (1000, 4)
    assert np.all(np.abs(trials.product[:, 0] - ROOT_HALF) <= 1e-15)
    assert np.all(np.abs(np.sum(trials.product**2, axis=1) - 1.0) <= 1e-12)
    for outcome in (trials.outcome_a, trials.outcome_b):
        assert np.all(np.abs(outcome[:, 0]) <= 1e-12)
        assert np.all(np.abs(np.sum(outcome**2, axis=1) - 1.0) <= 1e-12)


def test_each_angle_pair_uses_its_own_stream_block():
    trials = run_trials(np.array([0.2, 1.1]), np.array([0.9, 0.4]), 8, seed=21)
    assert np.array_equal(trials.signs, handedness_signs(21, 16))
    assert np.array_equal(trials.alpha, [0.2] * 8 + [1.1] * 8)
    assert np.array_equal(trials.beta, [0.9] * 8 + [0.4] * 8)


def test_columns_equal_the_per_trial_records():
    # Each row rebuilt one trial at a time through the dataclass API, as
    # the protocol ran before it took columns; the signs are pinned too.
    pairs = ((0.35, -0.6), (1.1, 0.4))
    n = 10**4
    angles = tuple((PolarizerAngle(a), PolarizerAngle(b)) for a, b in pairs)
    trials = run_trials(*np.array(pairs).T, n, 77)
    digest = hashlib.sha256(trials.signs.astype("<i8").tobytes()).hexdigest()
    assert digest == "d342fe1f6fd443f806fc66ea8c2a8d0baadcb684123bbf609e5429e4eceaf676"
    expected = {name: [] for name in COLUMNS}
    for p, (alpha, beta) in enumerate(angles):
        for sign in handedness_signs(77, n, start=p * n):
            handed = RIGHT_HANDED if sign > 0 else LEFT_HANDED
            a, b = alice_outcome(alpha, handed), bob_outcome(beta, handed)
            for name, value in zip(
                COLUMNS,
                (sign, alpha.radians, beta.radians, a.coeffs, b.coeffs,
                 oriented_even_product(handed, a, b).coeffs),
            ):
                expected[name].append(value)
    for name in COLUMNS:
        assert np.array_equal(getattr(trials, name), np.array(expected[name])), name


def test_a_closed_form_disagreement_raises(monkeypatch):
    closed_form = protocol.joint_product_closed_form

    def flipped(alpha, beta, handedness):
        rows = closed_form(alpha, beta, handedness)
        rows[..., 1:] *= -1.0
        return rows

    monkeypatch.setattr(protocol, "joint_product_closed_form", flipped)
    with pytest.raises(ArithmeticError):
        run_trials(PolarizerAngle(0.3), PolarizerAngle(0.0), 10, seed=4)


def test_config_validation():
    """A run needs at least one trial, at least one angle pair and finite angles."""
    with pytest.raises(ValueError, match="at least 1"):
        run_trials(PolarizerAngle(0.0), PolarizerAngle(0.0), 0, seed=0)
    with pytest.raises(ValueError, match="angle pair"):
        run_trials(np.array([]), np.array([]), 1, seed=0)
    with pytest.raises(ValueError, match="angle pair"):
        run_trials(np.zeros(3)[:, None], np.zeros((1, 0)), 1, seed=0)
    with pytest.raises(ValueError, match="finite"):
        run_trials(np.array([0.0, math.nan]), np.array([1.0, 1.0]), 1, seed=0)


def test_broadcast_angle_pairs_are_the_one_pair_runs_laid_end_to_end():
    """Pair ``p`` of the broadcast ``(3, 2)`` angles, in C order, takes stream block ``p``.

    A one-pair run of ``(p + 1) * n`` trials ends with that block.
    """
    alphas, betas = np.array([0.35, -0.6, 1.4]), np.array([1.1, 0.4])
    n, seed = 7, 123
    trials = run_trials(alphas[:, None], betas[None, :], n, seed)
    pairs = [(PolarizerAngle(a), PolarizerAngle(b)) for a in alphas for b in betas]
    runs = [run_trials(a, b, (p + 1) * n, seed) for p, (a, b) in enumerate(pairs)]
    for name in COLUMNS:
        blocks = [getattr(run, name)[p * n :] for p, run in enumerate(runs)]
        assert np.array_equal(getattr(trials, name), np.concatenate(blocks)), name
