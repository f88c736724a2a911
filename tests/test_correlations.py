import math
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from threesphere import correlations, protocol, suites
from threesphere.algebra import Handedness
from threesphere.correlations import (
    ChshSettings,
    CorrelationEstimate,
    chsh_maximize,
    chsh_value,
    joint_expectation,
    quantum_reference,
    single_expectation,
)
from threesphere.protocol import (
    SIGN_CHUNK,
    PolarizerAngle,
    handedness_sign_sum,
    handedness_signs,
    run_trials,
    stream_summary,
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


def test_single_expectation_takes_radian_arrays():
    thetas = np.radians([[0.0, 30.0, -112.5], [22.5, 45.0, 179.0]])
    batch = single_expectation(thetas, 1000, seed=4)
    assert batch.scalar_mean == 0.0
    assert all(channel.shape == thetas.shape for channel in batch.bivector_mean)
    for index, theta in np.ndenumerate(thetas):
        one = single_expectation(PolarizerAngle(theta), 1000, seed=4)
        assert all(isinstance(channel, float) for channel in one.bivector_mean)
        assert tuple(channel[index] for channel in batch.bivector_mean) == one.bivector_mean


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
    first = joint_expectation(deg(10.0), deg(70.0), 1, seed=0).scalar_mean
    assert abs(first - quantum_reference(deg(10.0), deg(70.0))) <= 1e-15
    for seed in (0, 1, 999, 2**40):
        for n in (1, 17, 4096):
            estimate = joint_expectation(deg(10.0), deg(70.0), n, seed=seed)
            assert estimate.scalar_mean == first


def test_joint_estimate_equals_the_per_record_average():
    alpha, beta = PolarizerAngle(0.35), PolarizerAngle(-0.6)
    n = 10**5
    estimate = joint_expectation(alpha, beta, n, seed=77)
    trials = run_trials(alpha, beta, n, seed=77)
    averaged = [math.fsum(column) / n for column in trials.product.T]
    assert abs(estimate.scalar_mean - averaged[0]) <= 1e-12
    for got, brute in zip(estimate.bivector_mean, averaged[1:]):
        assert abs(got - brute) <= 1e-12


def test_the_estimate_and_the_protocol_check_read_one_closed_form(monkeypatch):
    """A closed form with its e_xy sign flipped flips the estimate's bivector channel
    and fails the protocol suite's check against the direct outcome product."""

    def flipped_e_xy(alpha, beta, handedness):
        if isinstance(handedness, Handedness):
            handedness = Handedness(-handedness.sign)
        else:
            handedness = -np.asarray(handedness)
        return protocol.joint_product_closed_form(alpha, beta, handedness)

    alpha, beta = deg(10.0), deg(-35.0)
    checked = joint_expectation(alpha, beta, 1001, seed=3)  # an odd n: the sign sum is not 0
    for module in (correlations, suites):
        monkeypatch.setattr(module, "joint_product_closed_form", flipped_e_xy)
    mutated = joint_expectation(alpha, beta, 1001, seed=3)
    assert checked.bivector_mean[2] != 0.0
    assert mutated.bivector_mean == (0.0, 0.0, -checked.bivector_mean[2])
    assert mutated.scalar_mean == checked.scalar_mean
    failed = {check.name for check in suites.protocol_suite(200) if not check.passed}
    assert failed == {"closed form matches the direct outcome product"}


def test_joint_expectation_takes_radian_arrays():
    alphas, betas = np.radians([0.0, 17.0, 95.5]), np.radians([22.5, -40.0, 179.0])
    batch = joint_expectation(alphas[:, None], betas[None, :], 5000, seed=4)
    assert batch.scalar_mean.shape == batch.bivector_mean[2].shape == (3, 3)
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            one = joint_expectation(PolarizerAngle(alpha), PolarizerAngle(beta), 5000, seed=4)
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
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 16)
    for threads in range(1, 17):
        assert stream_summary(n, threads)["shards"] == threads
        assert handedness_sign_sum(2**63 + 9, n, threads=threads) == single


@pytest.mark.parametrize("start", [0, SIGN_CHUNK - 3, 2**64 - 5])
def test_threaded_sums_at_an_offset_equal_the_summed_array(monkeypatch, start):
    """Chunks start at ``start``, so a range that begins and ends mid-chunk, or wraps the
    counter, splits across threads as it does in one."""
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 8)
    for count in (SIGN_CHUNK - 7, 3 * SIGN_CHUNK + 11, 9 * SIGN_CHUNK + 2):
        expected = int(handedness_signs(17, count, start).sum())
        for threads in range(1, 9):
            assert handedness_sign_sum(17, count, start, threads) == expected


@pytest.mark.parametrize(
    "threads, error", [(0, ValueError), (-3, ValueError), (2.5, TypeError), (np.int64(2), None)],
    ids=["0", "-3", "2.5", "np.int64(2)"],
)
def test_the_thread_count_is_a_positive_integer(monkeypatch, threads, error):
    """Checked in the one sum, so a bad count fails the same way whatever the CPU count."""
    n = 3 * SIGN_CHUNK
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 64)
    sums = (
        lambda t: handedness_sign_sum(4, n, threads=t),
        lambda t: joint_expectation(deg(0.0), deg(30.0), n, seed=4, threads=t),
        lambda t: single_expectation(deg(30.0), n, seed=4, threads=t),
    )
    if error is None:
        assert stream_summary(n, threads)["shards"] == 2
        assert all(call(threads) == call(1) for call in sums)
        return
    for call in (lambda t: stream_summary(n, t), *sums):
        with pytest.raises(error):
            call(threads)


@pytest.mark.parametrize("n", [1, SIGN_CHUNK, SIGN_CHUNK + 1, 7 * SIGN_CHUNK - 3])
@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_shard_plan_covers_the_range_in_whole_chunks(monkeypatch, n, threads):
    """``stream_summary`` reports ``min(threads, cpus, chunks)`` shards, and a sum on that
    many threads claims each chunk of the range once, from at most that many threads."""
    chunks = -(-n // SIGN_CHUNK)
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 8)
    assert stream_summary(n, threads) == {
        "shards": min(threads, chunks), "chunk_size": SIGN_CHUNK, "chunks": chunks
    }
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 2)
    shards = stream_summary(n, threads)["shards"]
    assert shards == min(threads, 2, chunks)
    single = handedness_sign_sum(6, n)
    claims = []
    _thread_hook(monkeypatch, lambda in_caller: lambda first: claims.append((threading.get_ident(), first)))
    assert handedness_sign_sum(6, n, threads=threads) == single
    assert sorted(first for _, first in claims) == list(range(0, n, SIGN_CHUNK))
    assert len({ident for ident, _ in claims}) <= shards


def test_a_huge_thread_request_is_capped_at_the_cpu_count(monkeypatch):
    """The caller sums one shard, so a pool never has more than ``cpu_count - 1`` workers."""
    workers = []

    class InlineExecutor:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", InlineExecutor)
    n = 40 * SIGN_CHUNK + 1
    single = handedness_sign_sum(5, n)
    for cpus in (1, 2, 8):
        monkeypatch.setattr(protocol.os, "cpu_count", lambda c=cpus: c)
        workers.clear()
        assert stream_summary(n, 10**6)["shards"] == cpus
        assert handedness_sign_sum(5, n, threads=10**6) == single
        assert len(workers) == (cpus > 1) and all(w <= cpus - 1 for w in workers)


def _thread_hook(monkeypatch, before_claims):
    """Patch the chunk kernel the sharded sum calls in each thread.

    ``before_claims(in_caller)`` runs in each summing thread at the first chunk it
    claims, before that chunk is mixed, and returns a function called on each chunk
    it sums, with the chunk start.
    """
    caller = threading.current_thread()
    states = protocol._states
    on_chunk = {}

    def hooked(key, first, z, t):
        thread = threading.current_thread()
        if thread not in on_chunk:
            on_chunk[thread] = before_claims(thread is caller)
        on_chunk[thread](first)
        return states(key, first, z, t)

    monkeypatch.setattr(protocol, "_states", hooked)


def test_a_cold_two_thread_sum_builds_the_ramp_once(monkeypatch):
    """The calling thread builds the stream's ramp before it starts the pool, so the two
    threads, held at their first chunks until both are there, find it built and cannot
    race to build it twice."""
    n = 4 * SIGN_CHUNK
    single = handedness_sign_sum(8, n)
    both = threading.Barrier(2, timeout=10)
    built = []

    def before_claims(in_caller):
        built.append(protocol._ramp.cache_info().currsize)
        both.wait()
        return lambda first: None

    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 2)
    _thread_hook(monkeypatch, before_claims)
    protocol._ramp.cache_clear()
    assert handedness_sign_sum(8, n, threads=2) == single
    assert built == [1, 1]
    assert protocol._ramp.cache_info().misses == 1


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_a_raising_shard_ends_the_sum_and_leaves_no_thread(monkeypatch, where):
    """Whichever thread's claimed chunk raises, the caller's or a pool thread's, the error
    comes out of the sum and the pool is joined first.  The broken thread drains the shared
    range, so the other thread, which waits at its first chunk until the break, sums at
    most that one chunk, not the 63 left."""
    broke = threading.Event()
    summed_after = []

    def before_claims(in_caller):
        if in_caller != (where == "caller"):
            broke.wait(timeout=10)  # the other side claims only after a chunk has broken
            return summed_after.append

        def on_chunk(first):
            broke.set()
            raise ArithmeticError(f"chunk at {first} broke")
        return on_chunk

    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 2)
    _thread_hook(monkeypatch, before_claims)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="broke"):
        handedness_sign_sum(5, 64 * SIGN_CHUNK, threads=2)
    assert broke.is_set()
    assert threading.active_count() == before
    assert len(summed_after) <= 1


@pytest.mark.parametrize("slowed", ["caller", "worker"])
def test_a_slowed_thread_takes_fewer_chunks(monkeypatch, slowed):
    """The two threads claim chunks from one shared range: while one sleeps before its
    first claim, the other sums more than half of them, and each chunk is summed once."""
    n = 16 * SIGN_CHUNK - 5
    summed = []

    def before_claims(in_caller):
        if in_caller == (slowed == "caller"):
            time.sleep(0.1)
        return lambda first: summed.append((in_caller, first))

    single = handedness_sign_sum(3, n)
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 2)
    _thread_hook(monkeypatch, before_claims)
    assert handedness_sign_sum(3, n, threads=2) == single
    assert sorted(first for _, first in summed) == list(range(0, n, SIGN_CHUNK))
    unslowed = sum(in_caller != (slowed == "caller") for in_caller, _ in summed)
    assert unslowed > len(summed) / 2


def test_more_threads_than_cores_claim_each_chunk_once_under_fast_switching(monkeypatch):
    """Eight threads on a short switch interval: a chunk claimed twice or lost would show
    in the claimed starts and in the sum."""
    n = 64 * SIGN_CHUNK + 3
    single = handedness_sign_sum(21, n)
    summed = []
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 8)
    _thread_hook(monkeypatch, lambda in_caller: summed.append)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        total = handedness_sign_sum(21, n, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(summed) == list(range(0, n, SIGN_CHUNK))
    assert total == single


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
            assert grid[i, j] == quantum_reference(PolarizerAngle(thetas[i]), PolarizerAngle(thetas[j]))
            assert abs(grid[i, j] - math.cos(2.0 * (thetas[i] - thetas[j]))) <= 1e-15


def test_the_correlation_tensor_of_phi_plus_is_exactly_the_identity():
    tensor = correlations._correlation_tensor(correlations.PHI_PLUS)
    assert tensor.tolist() == [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("visibility, violates", [(0.70, False), (0.71, True)])
def test_a_werner_state_violates_chsh_only_above_visibility_one_over_root_two(
    monkeypatch, visibility, violates
):
    werner = visibility * correlations.PHI_PLUS + (1.0 - visibility) * np.eye(4) / 4.0
    monkeypatch.setattr(correlations, "_PHI_PLUS_TENSOR", correlations._correlation_tensor(werner))
    _, value = chsh_maximize(math.radians(0.75), quantum_reference)
    assert value == pytest.approx(visibility * TSIRELSON, abs=1e-12)
    assert (value > 2.0) is violates


def test_the_chsh_operator_at_the_optimal_settings_has_largest_eigenvalue_two_root_two():
    def polarizer(theta_deg):
        two = math.radians(2.0 * theta_deg)
        return math.cos(two) * correlations._PAULI[0] + math.sin(two) * correlations._PAULI[1]

    a, ap, b, bp = map(polarizer, (0.0, 45.0, 22.5, -22.5))
    operator = np.kron(a, b) + np.kron(a, bp) + np.kron(ap, b) - np.kron(ap, bp)
    assert abs(np.linalg.eigvalsh(operator).max() - TSIRELSON) <= 1e-12


def test_the_reference_grid_takes_one_cosine_and_one_sine_per_angle(monkeypatch):
    elements = []
    for name in ("cos", "sin"):
        trig = getattr(np, name)

        def counted(x, *args, trig=trig, **kwargs):
            elements.append(np.size(x))
            return trig(x, *args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    m = 240
    thetas = np.arange(m) * math.radians(0.75)
    grid = quantum_reference(thetas[:, None], thetas[None, :])
    assert grid.shape == (m, m)
    assert 0 < sum(elements) <= 4 * m


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


def test_chsh_value_calls_the_correlation_once_on_a_radian_column_and_row():
    calls = []

    def recorded(alpha, beta):
        calls.append((alpha, beta))
        return quantum_reference(alpha, beta)

    settings = ChshSettings(deg(0.0), deg(-45.0), deg(-22.5), deg(22.5))
    value = chsh_value(settings, recorded)
    ((alpha, beta),) = calls
    assert alpha.shape == (2, 1) and beta.shape == (1, 2)
    assert alpha.dtype == beta.dtype == np.float64
    assert alpha[:, 0].tolist() == [settings.alpha.radians, settings.alpha_prime.radians]
    assert beta[0].tolist() == [settings.beta.radians, settings.beta_prime.radians]
    assert abs(value - TSIRELSON) <= 1e-9


def test_chsh_bound_holds_for_random_quadruples():
    """One reference call on ``(N, 2, 1)`` by ``(N, 1, 2)`` covers all 10**5 quadruples.

    The draws are those of 10**5 successive four-angle draws; on the first
    2,000, :func:`chsh_value` gives the same values bit for bit.
    """
    quadruples = np.random.default_rng(1).uniform(0.0, math.pi, (10**5, 4))
    e = quantum_reference(quadruples[:, :2, None], quadruples[:, None, 2:])
    values = np.abs(e[:, 0, 0] + e[:, 0, 1] + e[:, 1, 0] - e[:, 1, 1])
    assert values.max() <= TSIRELSON + 1e-12
    for quadruple, value in zip(quadruples[:2000], values[:2000]):
        settings = ChshSettings(*map(PolarizerAngle, quadruple))
        assert chsh_value(settings, quantum_reference) == value


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
        assert chsh_value(settings, correlation) == pytest.approx(value, abs=1e-12)


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
    assert chsh_value(settings, perturbed) == pytest.approx(value, abs=1e-12)


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
    assert chsh_value(shift_settings, correlation) == pytest.approx(shift_value, abs=1e-12)
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
