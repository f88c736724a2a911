"""Benchmark workloads: job command lines drawn from a workload seed, and output checks.

Each workload is a closed loop with one client: the next job starts only
after the previous one has returned.  A job is one ``threesphere`` command
line; the program sees nothing but that argv.  Every check returns a list
of problems, empty when the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SIMULATE_N = 20_000_000
SCAN_N = 1_000_000
SCAN_BETAS = [5.0 * k for k in range(37)]  # --beta-start 0 --beta-stop 180 --beta-step 5
CHSH_STEP_DEG = 0.75  # divides 22.5, so the grid holds a quadruple reaching 2*sqrt(2)
VERIFY_SAMPLES = 10_000
VERIFY_SUITES = {"algebra", "topology", "protocol"}
TSIRELSON = 2.0 * math.sqrt(2.0)
MIN_SIN = 0.1  # rows with |sin 2(a-b)| at least this give back the sign sum


@dataclass(frozen=True)
class Job:
    argv: list
    params: dict  # what the job asked for; the checks compare the output with it
    out: Path | None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # the argv it runs and why it was chosen, as in BENCHMARK.json
    template: str
    work_unit: str  # what work_per_s counts on this workload
    make: Callable  # (random.Random, work dir) -> Job
    check: Callable  # (Job, exit code, stdout) -> list of problems
    work: Callable  # (Job, stdout) -> work units the job completed
    streams: bool  # the output carries an exact orientation sign sum


def _angle(rng: random.Random) -> str:
    return f"{rng.uniform(0.0, 180.0):.3f}"


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


# ---------------------------------------------------------------- reference


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def splitmix64_sign(seed: int, index: int) -> int:
    """Orientation sign of trial ``index`` (0-based), one Python integer at a time."""
    z = ((seed & _MASK64) + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK64
    z ^= z >> 31
    return -1 if z >> 63 else 1


def reference_sign_sum(seed: int, n: int, chunk: int = 1 << 20) -> int:
    """Exact sum of the first ``n`` orientation signs, in fixed-size chunks.

    Counts the splitmix64 outputs whose top bit is set; the sum is then
    ``n - 2 * count``.  Memory stays at a few chunk-sized arrays for any ``n``.
    """
    base = np.uint64(seed & _MASK64)
    gamma, mix_1, mix_2 = np.uint64(_GAMMA), np.uint64(_MIX_1), np.uint64(_MIX_2)
    negative = 0
    for first in range(0, n, chunk):
        z = np.arange(first + 1, min(first + chunk, n) + 1, dtype=np.uint64)
        z *= gamma
        z += base
        z ^= z >> np.uint64(30)
        z *= mix_1
        z ^= z >> np.uint64(27)
        z *= mix_2
        z ^= z >> np.uint64(31)
        negative += int(np.count_nonzero(z >> np.uint64(63)))
    return n - 2 * negative


# ------------------------------------------------------------ output checks


def read_rows(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _manifest_problems(job: Job, command: str) -> list:
    try:
        manifest = json.loads(Path(str(job.out) + ".manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    if manifest.get("command") != command:
        return [f"manifest command {manifest.get('command')!r} is not {command!r}"]
    recorded = manifest.get("parameters", {})
    return [
        f"manifest {key}={recorded.get(key)!r}, argv asked for {value!r}"
        for key, value in job.params.items()
        if recorded.get(key) != value
    ]


def _two_delta(alpha_deg: float, beta_deg: float) -> float:
    return 2.0 * (math.radians(alpha_deg) - math.radians(beta_deg))


def _estimate_problems(row: dict, alpha_deg: float, beta_deg: float, n: int, seed: int) -> list:
    """Checks on one estimate row; the bivector bound is six standard errors."""
    try:
        byz, bzx, bxy = float(row["biv_yz"]), float(row["biv_zx"]), float(row["biv_xy"])
        scalar = float(row["scalar_mean"])
        echoed = (float(row["beta_deg"]), int(row["n"]), int(row["seed"]))
    except (KeyError, TypeError, ValueError) as exc:
        return [f"row unreadable: {exc!r}"]
    d = _two_delta(alpha_deg, beta_deg)
    problems = []
    if echoed != (beta_deg, n, seed):
        problems.append(f"row echoes (beta, n, seed)={echoed}, expected {(beta_deg, n, seed)}")
    if byz != 0.0 or bzx != 0.0:
        problems.append(f"beta={beta_deg}: off-axis bivector ({byz}, {bzx}) is not zero")
    if abs(bxy) > 6.0 * abs(math.sin(d)) / math.sqrt(n):
        problems.append(f"beta={beta_deg}: |biv_xy|={abs(bxy):.3e} exceeds 6|sin 2(a-b)|/sqrt(n)")
    if abs(scalar - math.cos(d)) > 1e-12:
        problems.append(f"beta={beta_deg}: scalar mean {scalar!r} is not cos 2(a-b)")
    return problems


def _stream_rows(job: Job, exit_code: int, command: str, betas: list) -> list:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        rows = read_rows(job.out)
    except OSError as exc:
        return [f"table unreadable: {exc}"]
    if len(rows) != len(betas):
        return [f"{len(rows)} rows, expected {len(betas)}"]
    problems = []
    alpha = job.params["alpha_deg"]
    for row, beta in zip(rows, betas):
        problems += _estimate_problems(row, alpha, beta, job.params["n"], job.params["seed"])
    return problems + _manifest_problems(job, command)


def sign_sum_problems(job: Job) -> list:
    """Compare the sign sum behind the job's output with :func:`reference_sign_sum`.

    ``biv_xy = (S / n) * sin 2(a-b)``, so every row whose ``|sin 2(a-b)|`` is
    not small gives back the exact integer ``S``.
    """
    n, seed, alpha = job.params["n"], job.params["seed"], job.params["alpha_deg"]
    sums = set()
    for row in read_rows(job.out):
        s = math.sin(_two_delta(alpha, float(row["beta_deg"])))
        if abs(s) >= MIN_SIN:
            sums.add(round(float(row["biv_xy"]) * n / s))
    expected = reference_sign_sum(seed, n)
    if sums != {expected}:
        return [f"sign sums {sorted(sums)} recovered from the table, reference gives {expected}"]
    return []


# ---------------------------------------------------------------- simulate


def _simulate_job(rng: random.Random, work: Path) -> Job:
    alpha, beta = _angle(rng), _angle(rng)
    while abs(math.sin(_two_delta(float(alpha), float(beta)))) < MIN_SIN:
        beta = _angle(rng)  # keep the sign sum recoverable from biv_xy
    seed = _seed(rng)
    out = work / "simulate.csv"
    argv = ["simulate", "--alpha-deg", alpha, "--beta-deg", beta, "--n", str(SIMULATE_N),
            "--threads", "2", "--seed", str(seed), "--out", str(out)]
    params = {"alpha_deg": float(alpha), "beta_deg": float(beta), "n": SIMULATE_N,
              "seed": seed, "threads": 2, "format": "csv", "out": str(out)}
    return Job(argv, params, out)


def _simulate_check(job: Job, exit_code: int, stdout: str) -> list:
    return _stream_rows(job, exit_code, "simulate", [job.params["beta_deg"]])


# -------------------------------------------------------------------- scan


def _scan_job(rng: random.Random, work: Path) -> Job:
    alpha, seed = _angle(rng), _seed(rng)
    out = work / "scan.csv"
    argv = ["scan", "--alpha-deg", alpha, "--beta-start", "0", "--beta-stop", "180",
            "--beta-step", "5", "--n", str(SCAN_N), "--threads", "1", "--seed", str(seed),
            "--out", str(out)]
    params = {"alpha_deg": float(alpha), "beta_start_deg": 0.0, "beta_stop_deg": 180.0,
              "beta_step_deg": 5.0, "n": SCAN_N, "seed": seed, "threads": 1,
              "format": "csv", "out": str(out)}
    return Job(argv, params, out)


def _scan_check(job: Job, exit_code: int, stdout: str) -> list:
    return _stream_rows(job, exit_code, "scan", SCAN_BETAS)


# -------------------------------------------------------------------- chsh


def chsh_grid_size(step_deg: float) -> int:
    """Grid angles per axis: multiples of the step on ``[0, 180)`` degrees."""
    return max(1, math.ceil(math.pi / math.radians(step_deg) - 1e-9))


def _chsh_job(rng: random.Random, work: Path) -> Job:
    seed = _seed(rng)  # recorded and echoed only: the analytic search draws no trials
    out = work / "chsh.csv"
    argv = ["chsh", "--maximize", "--step-deg", str(CHSH_STEP_DEG), "--analytic",
            "--seed", str(seed), "--out", str(out)]
    params = {"maximize": True, "step_deg": CHSH_STEP_DEG, "analytic": True, "n": 0,
              "seed": seed, "format": "csv", "out": str(out)}
    return Job(argv, params, out)


def chsh_combination(alpha, alpha_prime, beta, beta_prime) -> float:
    """``|E(a,b) + E(a,b') + E(a',b) - E(a',b')|`` with ``E = cos 2(a-b)``, in degrees."""
    e = lambda a, b: math.cos(_two_delta(a, b))  # noqa: E731
    return abs(e(alpha, beta) + e(alpha, beta_prime) + e(alpha_prime, beta)
               - e(alpha_prime, beta_prime))


def _chsh_check(job: Job, exit_code: int, stdout: str) -> list:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        rows = read_rows(job.out)
        (row,) = rows
        settings = [float(row[k]) for k in ("alpha_deg", "alpha_prime_deg", "beta_deg", "beta_prime_deg")]
        value = float(row["chsh_value"])
        echoed = (row["method"], int(row["n"]), int(row["seed"]))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"chsh table unreadable: {exc!r}"]
    problems = []
    if abs(value - TSIRELSON) > 1e-12:
        problems.append(f"CHSH value {value!r} is not within 1e-12 of 2*sqrt(2)")
    again = chsh_combination(*settings)
    if abs(again - value) > 1e-12:
        problems.append(f"CHSH at the reported settings gives {again!r}, table says {value!r}")
    if echoed != ("analytic", 0, job.params["seed"]):
        problems.append(f"row echoes (method, n, seed)={echoed}")
    if not stdout.startswith("CHSH = "):
        problems.append("stdout does not report the CHSH value")
    return problems + _manifest_problems(job, "chsh")


def _chsh_work(job: Job, stdout: str) -> float:
    return float(chsh_grid_size(job.params["step_deg"]) ** 4)


# ------------------------------------------------------------------ verify


_CHECK_LINE = re.compile(r"^\[(\w+)\] (.+): max residual (\S+) \(tol (\S+)\) (PASS|FAIL)$")
VERIFY_OK = "verify: all properties hold"


def _verify_job(rng: random.Random, work: Path) -> Job:
    seed = _seed(rng)
    argv = ["verify", "all", "--samples", str(VERIFY_SAMPLES), "--seed", str(seed)]
    return Job(argv, {"samples": VERIFY_SAMPLES, "seed": seed}, None)


def verify_check_lines(stdout: str) -> list:
    return [m for m in map(_CHECK_LINE.match, stdout.splitlines()) if m]


def _verify_check(job: Job, exit_code: int, stdout: str) -> list:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    lines = stdout.splitlines()
    if not lines or lines[-1] != VERIFY_OK:
        return [f"transcript does not end with {VERIFY_OK!r}"]
    matches = verify_check_lines(stdout)
    problems = []
    if len(matches) != len(lines) - 1:
        problems.append(f"{len(lines) - 1 - len(matches)} transcript lines are not check results")
    for m in matches:
        try:
            residual, tolerance = float(m[3]), float(m[4])
        except ValueError:
            problems.append(f"unreadable residual in {m[0]!r}")
            continue
        if m[5] != "PASS" or not residual <= tolerance:
            problems.append(f"check failed: {m[0]!r}")
    seen = {m[1] for m in matches}
    if seen != VERIFY_SUITES:
        problems.append(f"suites reported {sorted(seen)}, expected {sorted(VERIFY_SUITES)}")
    return problems


def _verify_work(job: Job, stdout: str) -> float:
    return float(job.params["samples"] * len(verify_check_lines(stdout)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-sharded",
            "simulate --n 20000000 --threads 2, drawn angles and seed: one big sharded reduction, "
            "so the protocol stream and shard merge do the work and memory peaks",
            "simulate --alpha-deg {alpha} --beta-deg {beta} --n 20000000 --threads 2 --seed {seed} --out {out}",
            "trials",
            _simulate_job, _simulate_check,
            lambda job, stdout: float(job.params["n"]),
            streams=True,
        ),
        Workload(
            "scan-repeat",
            "scan --beta-start 0 --beta-stop 180 --beta-step 5 --n 1000000 --threads 1, drawn alpha "
            "and seed: 37 sums of one stream prefix; per-call cost, sign-sum reuse, 1-thread baseline",
            "scan --alpha-deg {alpha} --beta-start 0 --beta-stop 180 --beta-step 5 --n 1000000 --threads 1 --seed {seed} --out {out}",
            "trials",
            _scan_job, _scan_check,
            lambda job, stdout: float(job.params["n"] * len(SCAN_BETAS)),
            streams=True,
        ),
        Workload(
            "chsh-grid",
            "chsh --maximize --step-deg 0.75 --analytic: 57600 correlation calls fill a 240-point "
            "matrix, then the m^3 column scan; the orientation stream is bypassed",
            "chsh --maximize --step-deg 0.75 --analytic --seed {seed} --out {out}",
            "angle quadruples",
            _chsh_job, _chsh_check, _chsh_work,
            streams=False,
        ),
        Workload(
            "verify-suites",
            "verify all --samples 10000, drawn seed: the only workload that exercises the algebra, "
            "topology and suites layers",
            "verify all --samples 10000 --seed {seed}",
            "suite instances",
            _verify_job, _verify_check, _verify_work,
            streams=False,
        ),
    )
}
