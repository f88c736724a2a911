"""Command-line front end: simulate, scan, chsh, verify.

Angles are taken in degrees at this boundary and converted to radians
exactly once.  Identical command lines produce byte-identical data
files; every data file gets a sidecar ``<out>.manifest.json`` recording
the full configuration, the package version, and the wall-clock
duration (the only place a timestamp appears).

Exit codes: 0 success, 1 runtime or property failure, 2 usage error.
Every numeric input has a bounded range: ``--n`` runs from 1 to
:data:`MAX_TRIALS`, ``--threads`` is at least 1 (and is capped at the CPU
count when the work is sharded), a scan yields at most
:data:`MAX_SCAN_ROWS` rows over a finite angle range, and ``verify
--samples`` runs from 1 to :data:`MAX_SAMPLES`.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from datetime import datetime, timezone

from . import __version__
from .correlations import (
    ChshSettings,
    chsh_maximize,
    chsh_value,
    joint_estimator,
    joint_expectation,
    joint_expectations,
    quantum_reference,
    stream_summary,
)
from .protocol import PolarizerAngle
from .suites import SUITES
from .tables import write_manifest, write_table


# Largest accepted --n.  The sign sum streams about 2.5e8 signs/s per thread
# (2-vCPU x86-64 host, numpy 2.4), so 10**11 trials take about 7 minutes
# on one thread; memory stays flat at any --n.
MAX_TRIALS = 10**11

# Most rows one scan may produce; every row is held in memory before writing.
MAX_SCAN_ROWS = 100_000

# Largest verify --samples; about 2 minutes at the measured 10 us per sample.
MAX_SAMPLES = 10**7


class UsageError(Exception):
    pass


def _int_in_range(low: int, high=None):
    """argparse type: an integer in ``[low, high]`` (no upper end when ``high`` is None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value > high):
            upper = "" if high is None else f" and at most {high:.0e}"
            raise argparse.ArgumentTypeError(f"must be at least {low}{upper}, got {value}")
        return value

    return parse


def _estimate_row(alpha_deg, beta_deg, estimate, seed):
    reference = quantum_reference(
        PolarizerAngle.from_degrees(alpha_deg), PolarizerAngle.from_degrees(beta_deg)
    )
    byz, bzx, bxy = estimate.bivector_mean
    return {
        "alpha_deg": float(alpha_deg),
        "beta_deg": float(beta_deg),
        "scalar_mean": estimate.scalar_mean,
        "biv_yz": byz,
        "biv_zx": bzx,
        "biv_xy": bxy,
        "bivector_norm": estimate.bivector_norm,
        "standard_error": estimate.standard_error,
        "quantum_ref": reference,
        "deviation": abs(estimate.scalar_mean - reference),
        "n": estimate.trial_count,
        "seed": seed,
    }


def _manifest(command: str, parameters: dict, out_path, started: float, **blocks) -> None:
    write_manifest(
        out_path,
        {
            "command": command,
            "parameters": parameters,
            **blocks,
            "version": __version__,
            "duration_seconds": time.perf_counter() - started,
            "created_utc": datetime.now(timezone.utc).isoformat(),
        },
    )


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    alpha = PolarizerAngle.from_degrees(args.alpha_deg)
    beta = PolarizerAngle.from_degrees(args.beta_deg)
    estimate = joint_expectation(alpha, beta, args.n, args.seed, threads=args.threads)
    row = _estimate_row(args.alpha_deg, args.beta_deg, estimate, args.seed)
    fields = list(row)
    write_table(args.out, fields, [row], fmt=args.format)
    _manifest(
        "simulate",
        {
            "alpha_deg": args.alpha_deg,
            "beta_deg": args.beta_deg,
            "alpha_rad": alpha.radians,
            "beta_rad": beta.radians,
            "n": args.n,
            "seed": args.seed,
            "threads": args.threads,
            "format": args.format,
            "out": str(args.out),
        },
        args.out,
        started,
        stream=stream_summary(args.n, args.threads),
    )
    print(
        f"E({args.alpha_deg:g}, {args.beta_deg:g}) scalar mean {estimate.scalar_mean:.12f} "
        f"(n={args.n}) -> {args.out}"
    )
    return 0


_SCAN_FIELDS = [
    "beta_deg",
    "scalar_mean",
    "biv_yz",
    "biv_zx",
    "biv_xy",
    "bivector_norm",
    "quantum_ref",
    "deviation",
    "n",
    "seed",
]


def _scan_betas(start: float, stop: float, step: float) -> list:
    """The angles ``start + k*step``, ``k = 0, 1, ...``, up to ``stop + 1e-9*step``.

    The row count is worked out before any row is built, so a range that
    would give more than :data:`MAX_SCAN_ROWS` rows is refused up front.
    """
    if not all(math.isfinite(value) for value in (start, stop, step)):
        raise UsageError("--beta-start, --beta-stop and --beta-step must be finite")
    if step <= 0:
        raise UsageError("--beta-step must be positive")
    if stop < start:
        raise UsageError("--beta-stop must not be below --beta-start")
    limit = stop + 1e-9 * step
    too_many = f"--beta-step {step:g} gives more than {MAX_SCAN_ROWS} rows"
    last = (limit - start) / step  # the last k, up to rounding; inf on overflow
    if not last < MAX_SCAN_ROWS:
        raise UsageError(too_many)
    last = int(last)
    # Settle the rounding with the exact inclusion test, which holds for a
    # prefix of k since start + k*step does not decrease with k.
    while start + last * step > limit:
        last -= 1
    while last < MAX_SCAN_ROWS and start + (last + 1) * step <= limit:
        last += 1
    if last >= MAX_SCAN_ROWS:
        raise UsageError(too_many)
    return [start + k * step for k in range(last + 1)]


def cmd_scan(args) -> int:
    betas = _scan_betas(args.beta_start, args.beta_stop, args.beta_step)
    started = time.perf_counter()
    alpha = PolarizerAngle.from_degrees(args.alpha_deg)
    estimates = joint_expectations(
        alpha,
        [PolarizerAngle.from_degrees(beta_deg) for beta_deg in betas],
        args.n,
        args.seed,
        threads=args.threads,
    )
    rows = []
    for beta_deg, estimate in zip(betas, estimates):
        row = _estimate_row(args.alpha_deg, beta_deg, estimate, args.seed)
        rows.append({name: row[name] for name in _SCAN_FIELDS})
    write_table(args.out, _SCAN_FIELDS, rows, fmt=args.format)
    _manifest(
        "scan",
        {
            "alpha_deg": args.alpha_deg,
            "alpha_rad": alpha.radians,
            "beta_start_deg": args.beta_start,
            "beta_stop_deg": args.beta_stop,
            "beta_step_deg": args.beta_step,
            "n": args.n,
            "seed": args.seed,
            "threads": args.threads,
            "format": args.format,
            "out": str(args.out),
        },
        args.out,
        started,
        stream=stream_summary(args.n, args.threads),
    )
    print(f"scan: {len(rows)} settings -> {args.out}")
    return 0


def cmd_chsh(args) -> int:
    if bool(args.angles_deg) == bool(args.maximize):
        raise UsageError("give exactly one of four angles or --maximize")
    if args.analytic == (args.n is not None):
        raise UsageError("give exactly one of --analytic or --n")
    if args.maximize and args.step_deg is None:
        raise UsageError("--maximize needs --step-deg")
    if args.step_deg is not None and not args.maximize:
        raise UsageError("--step-deg needs --maximize")
    started = time.perf_counter()

    if args.analytic:
        correlation = quantum_reference
        method = "analytic"
        n = 0
    else:
        n = args.n
        estimate = joint_estimator(n, args.seed, threads=args.threads)

        def correlation(a, b):
            return estimate(a, b).scalar_mean

        method = "monte-carlo"

    if args.maximize:
        settings, value = chsh_maximize(math.radians(args.step_deg), correlation)
    else:
        a, ap, b, bp = args.angles_deg
        settings = ChshSettings(
            alpha=PolarizerAngle.from_degrees(a),
            alpha_prime=PolarizerAngle.from_degrees(ap),
            beta=PolarizerAngle.from_degrees(b),
            beta_prime=PolarizerAngle.from_degrees(bp),
        )
        value = chsh_value(settings, correlation)

    row = {
        "alpha_deg": settings.alpha.degrees,
        "alpha_prime_deg": settings.alpha_prime.degrees,
        "beta_deg": settings.beta.degrees,
        "beta_prime_deg": settings.beta_prime.degrees,
        "e_ab": correlation(settings.alpha, settings.beta),
        "e_ab_prime": correlation(settings.alpha, settings.beta_prime),
        "e_aprime_b": correlation(settings.alpha_prime, settings.beta),
        "e_aprime_bprime": correlation(settings.alpha_prime, settings.beta_prime),
        "chsh_value": value,
        "method": method,
        "n": n,
        "seed": args.seed,
    }
    print(f"CHSH = {value:.10f} ({method})")
    if args.maximize:
        print(
            "settings: alpha={alpha_deg:.6g} alpha'={alpha_prime_deg:.6g} "
            "beta={beta_deg:.6g} beta'={beta_prime_deg:.6g} (degrees)".format(**row)
        )
    if args.out:
        write_table(args.out, list(row), [row], fmt=args.format)
        _manifest(
            "chsh",
            {
                "angles_deg": list(args.angles_deg) if args.angles_deg else None,
                "maximize": bool(args.maximize),
                "step_deg": args.step_deg,
                "analytic": bool(args.analytic),
                "n": n,
                "seed": args.seed,
                "threads": args.threads,
                "format": args.format,
                "out": str(args.out),
            },
            args.out,
            started,
        )
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    all_passed = True
    for name in names:
        checks = SUITES[name](samples=args.samples, seed=args.seed)
        for check in checks:
            status = "PASS" if check.passed else "FAIL"
            all_passed &= check.passed
            print(
                f"[{name}] {check.name}: max residual {check.max_residual:.3e} "
                f"(tol {check.tolerance:.1e}) {status}"
            )
    print("verify: all properties hold" if all_passed else "verify: FAILURES above")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threesphere",
        description="Deterministic polarization-correlation experiments on the 3-sphere.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out: bool, default_n=10000):
        p.add_argument(
            "--n", type=_int_in_range(1, MAX_TRIALS), default=default_n,
            help=f"trials per estimate, 1 to {MAX_TRIALS:.0e}",
        )
        p.add_argument("--seed", type=int, default=0, help="stream seed")
        p.add_argument(
            "--threads", type=_int_in_range(1), default=1,
            help="worker threads for the trial range, at least 1; capped at the CPU count",
        )
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", required=needs_out, help="output data file")

    sim = sub.add_parser("simulate", help="one joint-correlation estimate")
    sim.add_argument("--alpha-deg", type=float, required=True)
    sim.add_argument("--beta-deg", type=float, required=True)
    common(sim, needs_out=True)
    sim.set_defaults(func=cmd_simulate)

    scan = sub.add_parser("scan", help="joint correlation across a beta range")
    scan.add_argument("--alpha-deg", type=float, required=True)
    scan.add_argument("--beta-start", type=float, required=True, help="degrees")
    scan.add_argument("--beta-stop", type=float, required=True, help="degrees")
    scan.add_argument("--beta-step", type=float, required=True, help="degrees")
    common(scan, needs_out=True)
    scan.set_defaults(func=cmd_scan)

    chsh = sub.add_parser("chsh", help="CHSH combination at four settings or its grid maximum")
    chsh.add_argument("--angles-deg", type=float, nargs=4, metavar=("A", "AP", "B", "BP"))
    chsh.add_argument("--maximize", action="store_true", help="grid-search all quadruples")
    chsh.add_argument("--step-deg", type=float, help="grid step for --maximize (degrees)")
    chsh.add_argument("--analytic", action="store_true", help="use the analytic correlation")
    common(chsh, needs_out=False, default_n=None)
    chsh.set_defaults(func=cmd_chsh)

    verify = sub.add_parser("verify", help="run an identity suite and report residuals")
    verify.add_argument("suite", choices=("algebra", "topology", "protocol", "all"))
    verify.add_argument(
        "--samples", type=_int_in_range(1, MAX_SAMPLES), default=1000,
        help=f"instances per check, 1 to {MAX_SAMPLES:.0e}",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
