"""Acceptance gate: one test per top-level contract, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest

from threesphere.algebra import (
    LEFT_HANDED,
    RIGHT_HANDED,
    EvenElement,
    even_product,
    oriented_even_product,
)
from threesphere.cli import main
from threesphere.correlations import (
    ChshSettings,
    chsh_maximize,
    chsh_value,
    joint_expectation,
    quantum_reference,
    single_expectation,
)
from threesphere.protocol import (
    PolarizerAngle,
    alice_outcome,
    bob_outcome,
    joint_product_closed_form,
)
from threesphere.suites import algebra_suite
from threesphere.topology import (
    NorthPoleError,
    S2Point,
    factorize_s3_point,
    s2_nonclosure_witness,
    stereographic_project,
    stereographic_unproject,
)

TSIRELSON = 2.0 * math.sqrt(2.0)


def deg(value):
    return PolarizerAngle.from_degrees(value)


def report(criterion, ok, detail):
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_joint_correlation_reproduces_the_quantum_curve():
    started = time.perf_counter()
    n = 10**4
    envelope = 4.0 / math.sqrt(n)
    worst_scalar = 0.0
    inside = 0
    points = list(range(0, 181, 5))
    for index, diff_deg in enumerate(points):
        estimate = joint_expectation(deg(diff_deg), deg(0.0), n, seed=2026 + index)
        expected = quantum_reference(deg(diff_deg), deg(0.0))
        worst_scalar = max(worst_scalar, abs(estimate.scalar_mean - expected))
        inside += estimate.bivector_norm <= envelope
    elapsed = time.perf_counter() - started
    report(
        1,
        worst_scalar <= 1e-12 and inside >= 35,
        f"scalar gap {worst_scalar:.2e} (tol 1e-12), bivector within 4/sqrt(n) at "
        f"{inside}/{len(points)} points (need 35), {elapsed:.2f}s",
    )


def test_criterion_2_single_arm_expectation_vanishes():
    started = time.perf_counter()
    n = 10**6
    worst = 0.0
    for k, theta_deg in enumerate((0.0, 22.5, 45.0, 67.5)):
        estimate = single_expectation(deg(theta_deg), n, seed=811 + k)
        assert estimate.scalar_mean == 0.0
        worst = max(worst, estimate.bivector_norm)
    elapsed = time.perf_counter() - started
    report(2, worst <= 0.004, f"worst estimate norm {worst:.2e} (tol 4e-3), {elapsed:.2f}s")


def test_criterion_3_chsh_reaches_the_quantum_bound():
    settings = ChshSettings(deg(0.0), deg(-45.0), deg(-22.5), deg(22.5))
    analytic = chsh_value(settings, quantum_reference)
    analytic_gap = abs(analytic - TSIRELSON)

    started = time.perf_counter()
    _, grid_maximum = chsh_maximize(math.radians(0.25), quantum_reference)
    grid_elapsed = time.perf_counter() - started
    grid_gap = abs(grid_maximum - TSIRELSON)

    def monte_carlo(alpha, beta):
        return joint_expectation(alpha, beta, 10**6, seed=4).scalar_mean

    mc_gap = abs(chsh_value(settings, monte_carlo) - TSIRELSON)

    report(
        3,
        analytic_gap <= 1e-9 and grid_gap <= 1e-4 and mc_gap <= 0.01,
        f"analytic gap {analytic_gap:.2e} (tol 1e-9), grid gap {grid_gap:.2e} "
        f"(tol 1e-4, {grid_elapsed:.2f}s), monte carlo gap {mc_gap:.2e} (tol 1e-2)",
    )


def test_criterion_4_algebra_identity_suite():
    started = time.perf_counter()
    checks = {check.name: check for check in algebra_suite(samples=1000, seed=0)}
    families = [
        "vector product splits into dot plus wedge",
        "basis bivector products follow the orientation rule",
        "generic oriented bivector identity",
        "even subalgebra closes and matches the full product",
        "norm is multiplicative on the even part",
    ]
    worst = max(checks[name].max_residual for name in families)
    ok = worst <= 1e-12 and all(check.passed for check in checks.values())
    elapsed = time.perf_counter() - started
    report(4, ok, f"1000 instances per identity, worst residual {worst:.2e} (tol 1e-12), {elapsed:.2f}s")


def test_criterion_5_closed_form_equals_direct_product_on_the_full_grid():
    grid = [k * math.pi / 100.0 for k in range(100)]
    worst = 0.0
    for a in grid:
        alpha = PolarizerAngle(a)
        for b in grid:
            beta = PolarizerAngle(b)
            for handed in (RIGHT_HANDED, LEFT_HANDED):
                direct = oriented_even_product(
                    handed, alice_outcome(alpha, handed), bob_outcome(beta, handed)
                )
                closed = joint_product_closed_form(alpha, beta, handed)
                worst = max(worst, max(abs(x - y) for x, y in zip(direct.coeffs, closed.coeffs)))
    report(5, worst <= 1e-12, f"100x100 grid, both orientations, worst gap {worst:.2e} (tol 1e-12)")


def test_criterion_6_topology_suite():
    rng = np.random.default_rng(60)

    round_trip_worst = 0.0
    checked = 0
    while checked < 1000:
        w = rng.standard_normal(3)
        w /= math.sqrt(float(w @ w))
        if w[2] > 1.0 - 1e-6:
            continue
        point = S2Point(*w)
        back = stereographic_unproject(stereographic_project(point))
        round_trip_worst = max(
            round_trip_worst, abs(back.x - point.x), abs(back.y - point.y), abs(back.z - point.z)
        )
        checked += 1
    with pytest.raises(NorthPoleError):
        stereographic_project(S2Point(0.0, 0.0, 1.0))

    factor_worst = 0.0
    for i in range(200):
        w = rng.standard_normal(4)
        w /= math.sqrt(float(w @ w))
        target = EvenElement(*w)
        factors = factorize_s3_point(target, 1 + i % 8, seed=i)
        product = factors[0]
        for f in factors[1:]:
            product = even_product(product, f)
        factor_worst = max(
            factor_worst, max(abs(x - y) for x, y in zip(product.coeffs, target.coeffs))
        )

    pairs = rng.standard_normal((1000, 2, 3))
    pairs /= np.linalg.norm(pairs, axis=-1, keepdims=True)
    a, b = pairs[:, 0], pairs[:, 1]
    witness = s2_nonclosure_witness(a, b)
    witness_worst = float(np.max(np.abs(witness[:, 0] + np.sum(a * b, axis=-1))))

    ok = round_trip_worst <= 1e-12 and factor_worst <= 1e-9 and witness_worst <= 1e-12
    report(
        6,
        ok,
        f"round trip {round_trip_worst:.2e} (tol 1e-12, pole rejected), factorization "
        f"{factor_worst:.2e} (tol 1e-9), witness {witness_worst:.2e} (tol 1e-12)",
    )


def test_criterion_7_reproducibility(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    argv = ["simulate", "--alpha-deg", "7", "--beta-deg", "61", "--n", "100000", "--seed", "13"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    identical_rerun = first.read_bytes() == second.read_bytes()

    # replay from the manifest configuration alone
    parameters = json.loads((tmp_path / "first.csv.manifest.json").read_text())["parameters"]
    replay = tmp_path / "replay.csv"
    assert main([
        "simulate",
        "--alpha-deg", str(parameters["alpha_deg"]),
        "--beta-deg", str(parameters["beta_deg"]),
        "--n", str(parameters["n"]),
        "--seed", str(parameters["seed"]),
        "--threads", str(parameters["threads"]),
        "--format", parameters["format"],
        "--out", str(replay),
    ]) == 0
    identical_replay = first.read_bytes() == replay.read_bytes()

    single = tmp_path / "single.csv"
    sharded = tmp_path / "sharded.csv"
    scan = ["scan", "--alpha-deg", "0", "--beta-start", "0", "--beta-stop", "90",
            "--beta-step", "15", "--n", "40000", "--seed", "29"]
    assert main(scan + ["--threads", "1", "--out", str(single)]) == 0
    assert main(scan + ["--threads", "5", "--out", str(sharded)]) == 0
    identical_shards = single.read_bytes() == sharded.read_bytes()

    report(
        7,
        identical_rerun and identical_replay and identical_shards,
        f"rerun identical {identical_rerun}, manifest replay identical {identical_replay}, "
        f"sharded equals single-threaded {identical_shards}",
    )
