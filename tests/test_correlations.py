import itertools
import math
import os

import numpy as np
import pytest

from threesphere import correlations
from threesphere.correlations import (
    ChshSettings,
    CorrelationEstimate,
    chsh_maximize,
    chsh_value,
    joint_estimator,
    joint_expectation,
    quantum_reference,
    sign_sum_plan,
    single_expectation,
    stream_summary,
)
from threesphere.protocol import (
    SIGN_CHUNK,
    PolarizerAngle,
    SimulationConfig,
    handedness_sign_sum,
    handedness_signs,
    run_trials,
)

ROOT_HALF = math.sqrt(2.0) / 2.0
TSIRELSON = 2.0 * math.sqrt(2.0)


def deg(value):
    return PolarizerAngle.from_degrees(value)


# ---------------------------------------------------------------------------
# Single-arm expectation
# ---------------------------------------------------------------------------


def test_single_scalar_channel_is_exactly_zero():
    estimate = single_expectation(deg(30.0), 1000, seed=4)
    assert estimate.scalar_mean == 0.0


def test_single_estimate_recomputes_from_the_sign_sequence():
    theta = PolarizerAngle(math.pi / 8.0)
    n = 1000
    estimate = single_expectation(theta, n, seed=8)
    signs = handedness_signs(8, n)
    mean_sign = (int((signs > 0).sum()) - int((signs < 0).sum())) / n
    axis = (math.sin(math.pi / 4.0), math.cos(math.pi / 4.0), 0.0)
    expected = tuple(mean_sign * c for c in axis)
    assert max(abs(a - b) for a, b in zip(estimate.bivector_mean, expected)) <= 1e-15
    joint = joint_expectation(theta, PolarizerAngle(0.0), n, seed=8)
    for one in (estimate, joint):
        assert one.trial_count == n
        assert one.standard_error == 1.0 / math.sqrt(n)


def test_single_estimate_cancels_for_a_balanced_pair():
    # find a seed whose first two orientation draws cancel
    seed = next(s for s in range(200) if int(handedness_signs(s, 2).sum()) == 0)
    estimate = single_expectation(deg(0.0), 2, seed=seed)
    assert estimate.bivector_mean == (0.0, 0.0, 0.0)
    assert estimate.bivector_norm == 0.0


def test_single_estimate_decays_at_a_million_trials():
    for k, theta_deg in enumerate((0.0, 22.5, 45.0, 67.5)):
        estimate = single_expectation(deg(theta_deg), 10**6, seed=100 + k)
        assert estimate.bivector_norm <= 0.004


def test_single_estimate_rejects_zero_trials():
    with pytest.raises(ValueError):
        single_expectation(deg(0.0), 0, seed=0)


# ---------------------------------------------------------------------------
# Joint expectation
# ---------------------------------------------------------------------------


def test_joint_scalar_at_equal_angles_is_one():
    assert joint_expectation(deg(0.0), deg(0.0), 10, seed=0).scalar_mean == 1.0


def test_joint_scalar_at_sixteenth_turn():
    estimate = joint_expectation(deg(0.0), deg(22.5), 100, seed=0)
    assert abs(estimate.scalar_mean - ROOT_HALF) <= 1e-15


def test_joint_at_eighth_turn_with_a_million_trials():
    estimate = joint_expectation(deg(0.0), deg(45.0), 10**6, seed=12)
    assert abs(estimate.scalar_mean) <= 1e-12
    assert estimate.bivector_norm <= 0.004


def test_joint_scalar_is_seed_and_count_independent():
    reference = quantum_reference(deg(10.0), deg(70.0))
    for seed in (0, 1, 999, 2**40):
        for n in (1, 17, 4096):
            estimate = joint_expectation(deg(10.0), deg(70.0), n, seed=seed)
            assert estimate.scalar_mean == reference


def test_joint_estimate_equals_the_per_record_average():
    alpha, beta = PolarizerAngle(0.35), PolarizerAngle(-0.6)
    n = 10**5
    estimate = joint_expectation(alpha, beta, n, seed=77)
    trials = run_trials(SimulationConfig(trial_count=n, seed=77, angles=((alpha, beta),)))
    averaged = [math.fsum(column) / n for column in trials.product.T]
    assert abs(estimate.scalar_mean - averaged[0]) <= 1e-12
    for got, brute in zip(estimate.bivector_mean, averaged[1:]):
        assert abs(got - brute) <= 1e-12


def test_joint_estimator_takes_radian_arrays():
    estimate = joint_estimator(5000, seed=4)
    alphas, betas = np.radians([0.0, 17.0, 95.5]), np.radians([22.5, -40.0, 179.0])
    batch = estimate(alphas[:, None], betas[None, :])
    assert batch.scalar_mean.shape == batch.bivector_mean[2].shape == (3, 3)
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            one = estimate(PolarizerAngle(alpha), PolarizerAngle(beta))
            assert isinstance(one.scalar_mean, float)
            assert batch.scalar_mean[i, j] == one.scalar_mean
            assert batch.bivector_mean[2][i, j] == one.bivector_mean[2]
            assert batch.bivector_norm[i, j] == one.bivector_norm


def test_joint_merges_like_a_weighted_average():
    alpha, beta = deg(5.0), deg(60.0)
    n, half = 1000, 600
    whole = joint_expectation(alpha, beta, n, seed=31)
    first = int(handedness_signs(31, half).sum()) / half
    second = int(handedness_signs(31, n - half, start=half).sum()) / (n - half)
    merged_sign = (first * half + second * (n - half)) / n
    merged_bxy = merged_sign * math.sin(2.0 * (alpha.radians - beta.radians))
    assert abs(whole.bivector_mean[2] - merged_bxy) <= 1e-12


def test_joint_sharding_is_bit_identical():
    alpha, beta = deg(13.0), deg(41.0)
    single = joint_expectation(alpha, beta, 10**5, seed=9, threads=1)
    for threads in (2, 3, 7, 16):
        assert joint_expectation(alpha, beta, 10**5, seed=9, threads=threads) == single


# ---------------------------------------------------------------------------
# Sharded sign sums
# ---------------------------------------------------------------------------


def test_sharded_sum_equals_the_single_sum(monkeypatch):
    n = 16 * SIGN_CHUNK + 12345
    single = handedness_sign_sum(2**63 + 9, n)
    monkeypatch.setattr(correlations.os, "cpu_count", lambda: 16)
    for threads in range(1, 17):
        assert len(sign_sum_plan(n, threads)) == threads
        assert correlations._summed_signs(2**63 + 9, n, threads) == single


@pytest.mark.parametrize("n", [1, SIGN_CHUNK, SIGN_CHUNK + 1, 7 * SIGN_CHUNK - 3])
@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_shard_plan_covers_the_range_in_whole_chunks(monkeypatch, n, threads):
    monkeypatch.setattr(correlations.os, "cpu_count", lambda: 8)
    plan = sign_sum_plan(n, threads)
    assert len(plan) == min(threads, -(-n // SIGN_CHUNK))
    assert [start for start, _ in plan] == [0] + list(itertools.accumulate(c for _, c in plan[:-1]))
    assert sum(count for _, count in plan) == n
    assert all(count > 0 and count % SIGN_CHUNK == 0 for _, count in plan[:-1])
    assert stream_summary(n, threads) == {
        "shards": len(plan), "chunk_size": SIGN_CHUNK, "chunks": -(-n // SIGN_CHUNK)
    }


def test_a_huge_thread_request_is_capped_at_the_cpu_count(monkeypatch):
    workers = []

    class InlineExecutor:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(correlations, "ThreadPoolExecutor", InlineExecutor)
    n = 40 * SIGN_CHUNK + 1
    cpus = os.cpu_count() or 1
    assert len(sign_sum_plan(n, 10**6)) == min(cpus, 41)
    assert correlations._summed_signs(5, n, 10**6) == handedness_sign_sum(5, n)
    assert all(w <= cpus for w in workers)


def test_joint_bivector_decays_across_seeds():
    n = 10**4
    envelope = 4.0 / math.sqrt(n)
    exceeded = sum(
        joint_expectation(deg(0.0), deg(30.0), n, seed=seed).bivector_norm > envelope
        for seed in range(100)
    )
    assert exceeded <= 2


def test_joint_rejects_zero_trials():
    with pytest.raises(ValueError):
        joint_expectation(deg(0.0), deg(0.0), 0, seed=0)


def test_estimate_validation():
    with pytest.raises(ValueError):
        CorrelationEstimate(0.0, (0.0, 0.0, 0.0), 0)
    with pytest.raises(ValueError):
        CorrelationEstimate(0.0, (0.0, 0.0), 1)
    with pytest.raises(TypeError):  # derived from trial_count, never stored
        CorrelationEstimate(0.0, (0.0, 0.0, 0.0), 4, 0.5)
    assert CorrelationEstimate(0.0, (0.0, 0.0, 0.0), 4).standard_error == 0.5


# ---------------------------------------------------------------------------
# Analytic reference and CHSH
# ---------------------------------------------------------------------------


def test_reference_values():
    assert quantum_reference(deg(0.0), deg(0.0)) == 1.0
    assert abs(quantum_reference(deg(0.0), deg(45.0))) <= 1e-15
    assert abs(quantum_reference(deg(0.0), deg(22.5)) - ROOT_HALF) <= 1e-15
    assert isinstance(quantum_reference(deg(10.0), deg(70.0)), float)


def test_reference_on_radian_arrays_equals_the_scalar_formula():
    thetas = np.arange(240) * math.radians(0.75)
    grid = quantum_reference(thetas[:, None], thetas[None, :])
    assert grid.shape == (240, 240)
    for i in range(0, 240, 7):
        for j in range(240):
            assert grid[i, j] == math.cos(2.0 * (thetas[i] - thetas[j]))


def test_chsh_with_equal_settings_is_two():
    settings = ChshSettings(deg(10.0), deg(10.0), deg(10.0), deg(10.0))
    assert chsh_value(settings, quantum_reference) == pytest.approx(2.0, abs=1e-12)


def test_chsh_at_the_maximizing_quadruple():
    settings = ChshSettings(deg(0.0), deg(-45.0), deg(-22.5), deg(22.5))
    assert abs(chsh_value(settings, quantum_reference) - TSIRELSON) <= 1e-9


def test_chsh_with_repeated_rows_never_exceeds_two():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.uniform(0.0, 180.0, 2)
        settings = ChshSettings(deg(a), deg(a), deg(b), deg(b))
        assert chsh_value(settings, quantum_reference) <= 2.0 + 1e-12


def test_chsh_bound_holds_for_random_quadruples():
    rng = np.random.default_rng(1)
    for _ in range(10**5):
        a, ap, b, bp = rng.uniform(0.0, math.pi, 4)
        settings = ChshSettings(
            PolarizerAngle(a), PolarizerAngle(ap), PolarizerAngle(b), PolarizerAngle(bp)
        )
        assert chsh_value(settings, quantum_reference) <= TSIRELSON + 1e-12


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


def brute_force_maximum(resolution, correlation):
    """Largest CHSH value over every quadruple of grid angles, one scalar call per cell."""
    m = max(int(math.ceil(math.pi / resolution - 1e-9)), 1)
    thetas = [k * resolution for k in range(m)]
    e = np.array([[correlation(a, b) for b in thetas] for a in thetas], dtype=float)
    a, ap, b, bp = np.ix_(*[range(m)] * 4)
    return float(np.abs(e[a, b] + e[a, bp] + e[ap, b] - e[ap, bp]).max())


def on_angles(correlation):
    """The radian-array ``correlation`` as a function of two :class:`PolarizerAngle`."""
    return lambda a, b: float(correlation(a.radians, b.radians))


def sawtooth(alpha, beta):
    """Correlation of the local +1/-1 sign model, ``1 - 4|d|/pi`` with ``d`` wrapped to [-pi/2, pi/2)."""
    d = np.mod(np.subtract(alpha, beta) + math.pi / 2.0, math.pi) - math.pi / 2.0
    return 1.0 - 4.0 * np.abs(d) / math.pi


def lopsided(alpha, beta):
    """Neither symmetric nor shift-invariant."""
    return 0.6 * np.sin(alpha) - 0.8 * np.cos(2.0 * beta) + 0.1 * np.cos(3.0 * (alpha + beta))


def tilted(alpha, beta):
    """Shift-invariant, but not even in ``alpha - beta``."""
    d = 2.0 * np.subtract(alpha, beta)
    return 0.8 * np.cos(d) + 0.6 * np.sin(d)


# 15, 20 and 22.5 degrees divide the half turn, 7 degrees does not.
GRID_STEPS_DEG = (15.0, 20.0, 22.5, 7.0)


def assert_matches_brute_force(correlation):
    for step_deg in GRID_STEPS_DEG:
        resolution = math.radians(step_deg)
        settings, value = chsh_maximize(resolution, correlation)
        assert value == pytest.approx(brute_force_maximum(resolution, correlation), abs=1e-12)
        assert chsh_value(settings, on_angles(correlation)) == pytest.approx(value, abs=1e-12)


def test_grid_search_matches_brute_force_for_the_reference():
    assert_matches_brute_force(quantum_reference)


def test_grid_search_matches_brute_force_for_an_asymmetric_correlation():
    assert_matches_brute_force(lopsided)


def test_grid_search_matches_brute_force_for_the_local_sawtooth():
    assert_matches_brute_force(sawtooth)


def test_grid_search_matches_brute_force_for_a_tilted_correlation(monkeypatch):
    searched = spy_on_searched_columns(monkeypatch)
    assert_matches_brute_force(tilted)
    assert searched == [1, 1, 1, 26]


def spy_on_searched_columns(monkeypatch):
    """Record how many ``b'`` columns each grid search scans."""
    searched = []
    search = correlations._column_search

    def spy(matrix, columns, plus, minus):
        searched.append(len(columns))
        return search(matrix, columns, plus, minus)

    monkeypatch.setattr(correlations, "_column_search", spy)
    return searched


def test_the_reference_on_a_wrapping_grid_takes_the_shift_search(monkeypatch):
    searched = spy_on_searched_columns(monkeypatch)
    for step_deg in (22.5, 0.75, 0.25):
        _, value = chsh_maximize(math.radians(step_deg), quantum_reference)
        assert abs(value - TSIRELSON) <= 1e-12
    assert searched == [1, 1, 1]


def test_non_wrapping_and_asymmetric_grids_take_the_exhaustive_scan(monkeypatch):
    searched = spy_on_searched_columns(monkeypatch)
    chsh_maximize(math.radians(7.0), quantum_reference)
    chsh_maximize(math.radians(7.0), lambda a, b: 1.0)  # circulant, but the grid does not wrap
    chsh_maximize(math.radians(15.0), lopsided)
    assert searched == [26, 26, 12]


def test_a_perturbed_circulant_matrix_takes_the_exhaustive_scan(monkeypatch):
    resolution = math.radians(22.5)
    a, b = 0 * resolution, 7 * resolution  # E(a, b) of a maximizing quadruple with b' = 1

    def perturbed(alpha, beta):
        moved = np.logical_and(np.equal(alpha, a), np.equal(beta, b))
        return quantum_reference(alpha, beta) + 1e-9 * moved

    searched = spy_on_searched_columns(monkeypatch)
    settings, value = chsh_maximize(resolution, perturbed)
    assert searched == [8]
    expected = brute_force_maximum(resolution, perturbed)
    assert expected > TSIRELSON + 5e-10
    assert value == pytest.approx(expected, abs=1e-12)
    assert chsh_value(settings, on_angles(perturbed)) == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("correlation, bound", [(quantum_reference, TSIRELSON), (sawtooth, 2.0)])
def test_shift_search_and_exhaustive_scan_agree_at_three_quarter_degree(
    monkeypatch, correlation, bound
):
    resolution = math.radians(0.75)
    searched = spy_on_searched_columns(monkeypatch)
    shift_settings, shift_value = chsh_maximize(resolution, correlation)
    monkeypatch.setattr(correlations, "_circulant", lambda matrix, scratch: False)
    _, exhaustive_value = chsh_maximize(resolution, correlation)
    assert searched == [1, 240]
    assert shift_value == pytest.approx(exhaustive_value, abs=1e-12)
    assert chsh_value(shift_settings, on_angles(correlation)) == pytest.approx(shift_value, abs=1e-12)
    if correlation is quantum_reference:
        assert abs(shift_value - TSIRELSON) <= 1e-12
    assert shift_value <= bound + 1e-12


def test_grid_search_saturates_the_quantum_bound():
    settings, value = chsh_maximize(math.radians(2.5), quantum_reference)
    assert abs(value - TSIRELSON) <= 1e-12
    assert chsh_value(settings, quantum_reference) == pytest.approx(value, abs=1e-12)


def test_grid_search_with_constant_correlation():
    _, value = chsh_maximize(math.radians(2.5), lambda a, b: 1.0)
    assert value == pytest.approx(2.0, abs=1e-12)
    assert_matches_brute_force(lambda a, b: 1.0)


def test_grid_search_on_the_single_point_grid():
    _, value = chsh_maximize(math.pi, quantum_reference)
    assert value == pytest.approx(2.0, abs=1e-12)


def test_grid_search_rejects_bad_resolution():
    with pytest.raises(ValueError):
        chsh_maximize(0.0, quantum_reference)
    with pytest.raises(ValueError):
        chsh_maximize(-1.0, quantum_reference)
    with pytest.raises(ValueError):
        chsh_maximize(1e-9, quantum_reference)
    for step in (math.inf, math.nan, 1e-322):
        with pytest.raises(ValueError, match="grid step"):
            chsh_maximize(step, quantum_reference)


def test_the_exhaustive_scan_is_refused_above_its_grid_cap_on_a_wrapping_grid():
    m = correlations._MAX_EXHAUSTIVE + 56  # pi / m divides the half turn
    with pytest.raises(ValueError, match=f"grid of {m} points"):
        chsh_maximize(math.pi / m, lopsided)
    _, value = chsh_maximize(math.pi / m, quantum_reference)  # circulant: the shift search
    assert abs(value - TSIRELSON) <= 1e-12


def test_a_non_wrapping_grid_above_the_cap_is_refused_before_any_correlation_call():
    calls = []

    def counted(alpha, beta):
        calls.append(1)
        return quantum_reference(alpha, beta)

    m = correlations._MAX_EXHAUSTIVE + 1
    with pytest.raises(ValueError, match=f"grid of {m} points"):
        chsh_maximize(math.pi / m * (1.0 + 1e-6), counted)
    assert calls == []
