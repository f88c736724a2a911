"""Command-line front end: simulate, scan, chsh, verify.

Angles are taken in degrees at this boundary and converted to radians
exactly once.  A ``simulate`` row is the one-angle ``scan`` row.
Identical command lines produce byte-identical data files; every data
file gets a sidecar ``<out>.manifest.json`` recording the configuration,
the package version, and the wall-clock duration (the only place a
timestamp appears).  Its ``parameters`` are the parsed options under
their argparse dest names, plus the angles in radians (``alpha_rad``,
and ``beta_rad`` for ``simulate``).  ``chsh`` evaluates the |Phi+> quantum
reference, draws no trials, records ``n`` as 0 and only echoes ``--seed``.

Exit codes: 0 success, 1 runtime or property failure, 2 usage error.
Every numeric input has a bounded range: ``--n`` runs from 1 to
:data:`MAX_TRIALS`, ``--seed`` from 0 to :data:`MAX_SEED`, ``--threads``
is at least 1 (and is capped at the CPU count when the work is sharded),
a scan yields at most :data:`MAX_SCAN_ROWS` rows over a finite angle
range, and ``verify --samples`` runs from 1 to :data:`MAX_SAMPLES`.

``verify all`` runs its three suites one after another in the calling
thread and prints each suite's results as it finishes; a suite that
raises ends the run before the next one starts.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .correlations import (
    ChshSettings,
    _chsh,
    _chsh_terms,
    chsh_maximize,
    joint_expectation,
    quantum_reference,
)
from .protocol import PolarizerAngle, stream_summary
from .suites import SUITES
from .tables import write_manifest, write_table


# Largest accepted --n.  At the one-thread sign sum's rate, about 4e8 signs/s
# (BENCH_claimed_chunks.json, notes), 10**11 trials take about 4 minutes; on more
# threads, each claims 2**16-trial chunks until none are left.  Memory stays flat
# at any --n.
MAX_TRIALS = 10**11

# Most rows one scan may produce; every row is held in memory before writing.
MAX_SCAN_ROWS = 100_000

# Largest verify --samples: a run of under half a minute in one thread, at the
# cost per sample measured at 10**6 samples (BENCH_in_place_even.json).  The six
# bilinear algebra checks sample only their first block.
MAX_SAMPLES = 10**7

# Largest --seed: the orientation stream reads the seed as one uint64.
MAX_SEED = 2**64 - 1


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
            upper = "" if high is None else f" and at most {high}"
            raise argparse.ArgumentTypeError(f"must be at least {low}{upper}, got {value}")
        return value

    return parse


def _write_estimates(args, alpha, beta_deg, omit=(), **derived):
    """Write one row per angle of the array ``beta_deg`` at ``alpha``, and the manifest.

    One :func:`joint_expectation` and one :func:`quantum_reference` call
    give every row.  The columns are all but those in ``omit``; ``derived``
    goes into the manifest after ``alpha_rad``.  Returns the estimate.
    """
    started = time.perf_counter()
    beta = np.radians(beta_deg)
    estimate = joint_expectation(alpha, beta, args.n, args.seed, threads=args.threads)
    reference = quantum_reference(alpha, beta)
    byz, bzx, bxy = estimate.bivector_mean
    row = {
        "alpha_deg": float(args.alpha_deg),
        "beta_deg": beta_deg,
        "scalar_mean": estimate.scalar_mean,
        "biv_yz": byz,
        "biv_zx": bzx,
        "biv_xy": bxy,
        "bivector_norm": estimate.bivector_norm,
        "standard_error": estimate.standard_error,
        "quantum_ref": reference,
        "deviation": abs(estimate.scalar_mean - reference),
        "n": estimate.trial_count,
        "seed": args.seed,
    }
    arrays = {name: value.tolist() for name, value in row.items() if isinstance(value, np.ndarray)}
    rows = [{**row, **dict(zip(arrays, values))} for values in zip(*arrays.values())]
    fields = [field for field in row if field not in omit]
    write_table(args.out, fields, rows, fmt=args.format)
    derived = {"alpha_rad": alpha.radians, **derived}
    _manifest(args, started, derived, stream=stream_summary(args.n, args.threads))
    return estimate


def _manifest(args, started: float, derived: dict, **blocks) -> None:
    """Write the manifest of ``args.out``: the parsed options, then ``derived`` over them."""
    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    write_manifest(
        args.out,
        {
            "command": args.command,
            "parameters": {**parameters, **derived},
            **blocks,
            "version": __version__,
            "duration_seconds": time.perf_counter() - started,
            "created_utc": datetime.now(timezone.utc).isoformat(),
        },
    )


def cmd_simulate(args) -> int:
    alpha, beta = map(PolarizerAngle.from_degrees, (args.alpha_deg, args.beta_deg))
    estimate = _write_estimates(args, alpha, np.array([args.beta_deg]), beta_rad=beta.radians)
    print(
        f"E({args.alpha_deg:g}, {args.beta_deg:g}) scalar mean {estimate.scalar_mean[0]:.12f} "
        f"(n={args.n}) -> {args.out}"
    )
    return 0


def _scan_betas(start: float, stop: float, step: float) -> list:
    """The angles ``start + k*step``, ``k = 0, 1, ...``, up to ``stop + 1e-9*step``.

    Rows are built up to ``k = MAX_SCAN_ROWS`` and end at the first angle
    above that limit; a range that reaches ``k = MAX_SCAN_ROWS`` is refused.
    """
    if not all(math.isfinite(value) for value in (start, stop, step)):
        raise UsageError("--beta-start, --beta-stop and --beta-step must be finite")
    if step <= 0:
        raise UsageError("--beta-step must be positive")
    if stop < start:
        raise UsageError("--beta-stop must not be below --beta-start")
    limit = stop + 1e-9 * step
    betas = []
    for k in range(MAX_SCAN_ROWS + 1):
        beta = start + k * step
        if beta > limit:
            return betas
        betas.append(beta)
    raise UsageError(f"--beta-step {step:g} gives more than {MAX_SCAN_ROWS} rows")


def cmd_scan(args) -> int:
    betas = _scan_betas(args.beta_start_deg, args.beta_stop_deg, args.beta_step_deg)
    alpha = PolarizerAngle.from_degrees(args.alpha_deg)
    _write_estimates(args, alpha, np.array(betas), omit=("alpha_deg", "standard_error"))
    print(f"scan: {len(betas)} settings -> {args.out}")
    return 0


def cmd_chsh(args) -> int:
    if bool(args.angles_deg) == bool(args.maximize):
        raise UsageError("give exactly one of four angles or --maximize")
    if args.maximize and args.step_deg is None:
        raise UsageError("--maximize needs --step-deg")
    if args.step_deg is not None and not args.maximize:
        raise UsageError("--step-deg needs --maximize")
    started = time.perf_counter()
    if args.maximize:
        settings, _ = chsh_maximize(math.radians(args.step_deg), quantum_reference)
        degrees = [angle.degrees for angle in vars(settings).values()]
    else:
        # The given angles are written as given, not read back from radians.
        degrees = args.angles_deg
        settings = ChshSettings(*map(PolarizerAngle.from_degrees, degrees))
    # One correlation call gives the row's four terms; the value is their combination.
    e = _chsh_terms(settings, quantum_reference)
    row = {
        **dict(zip(("alpha_deg", "alpha_prime_deg", "beta_deg", "beta_prime_deg"), degrees)),
        **dict(zip(("e_ab", "e_ab_prime", "e_aprime_b", "e_aprime_bprime"), e.ravel().tolist())),
        "chsh_value": _chsh(e), "method": "analytic", "n": 0, "seed": args.seed,
    }
    print(f"CHSH = {row['chsh_value']:.10f} (analytic)")
    if args.maximize:
        print(
            "settings: alpha={alpha_deg:.6g} alpha'={alpha_prime_deg:.6g} "
            "beta={beta_deg:.6g} beta'={beta_prime_deg:.6g} (degrees)".format(**row)
        )
    if args.out:
        write_table(args.out, list(row), [row], fmt=args.format)
        _manifest(args, started, {"n": 0})
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    all_passed = True
    for name in names:
        for check in SUITES[name](samples=args.samples, seed=args.seed):
            status = "PASS" if check.passed else "FAIL"
            all_passed &= check.passed
            print(
                f"[{name}] {check.name}: max residual {check.max_residual:.3e} "
                f"(tol {check.tolerance:.1e}) {status}"
            )
    print("verify: all properties hold" if all_passed else "verify: FAILURES above")
    return 0 if all_passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threesphere",
        description="Deterministic polarization-correlation experiments on the 3-sphere.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out: bool):
        p.add_argument("--seed", type=_int_in_range(0, MAX_SEED), default=0, help="stream seed")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", required=needs_out, help="output data file")

    def trials(p):
        p.add_argument(
            "--n", type=_int_in_range(1, MAX_TRIALS), default=10000,
            help=f"trials per estimate, 1 to {MAX_TRIALS:.0e}",
        )
        p.add_argument(
            "--threads", type=_int_in_range(1), default=1,
            help="worker threads for the trial range, at least 1; capped at the CPU count",
        )
        common(p, needs_out=True)

    sim = sub.add_parser("simulate", help="one joint-correlation estimate")
    sim.add_argument("--alpha-deg", type=float, required=True)
    sim.add_argument("--beta-deg", type=float, required=True)
    trials(sim)
    sim.set_defaults(func=cmd_simulate)

    scan = sub.add_parser("scan", help="joint correlation across a beta range")
    scan.add_argument("--alpha-deg", type=float, required=True)
    for part in ("start", "stop", "step"):
        scan.add_argument(
            f"--beta-{part}", dest=f"beta_{part}_deg", metavar=f"BETA_{part.upper()}",
            type=float, required=True, help="degrees",
        )
    trials(scan)
    scan.set_defaults(func=cmd_scan)

    chsh = sub.add_parser("chsh", help="CHSH combination at four settings or its grid maximum")
    chsh.add_argument("--angles-deg", type=float, nargs=4, metavar=("A", "AP", "B", "BP"))
    chsh.add_argument("--maximize", action="store_true", help="grid-search all quadruples")
    chsh.add_argument("--step-deg", type=float, help="grid step for --maximize (degrees)")
    chsh.add_argument("--analytic", action="store_true", required=True, help="the |Phi+> reference")
    common(chsh, needs_out=False)
    chsh.set_defaults(func=cmd_chsh)

    verify = sub.add_parser("verify", help="run an identity suite and report residuals")
    verify.add_argument("suite", choices=("algebra", "topology", "protocol", "all"))
    verify.add_argument(
        "--samples", type=_int_in_range(1, MAX_SAMPLES), default=1000,
        help=f"instances per sampled check, 1 to {MAX_SAMPLES:.0e}; the bilinear algebra "
        "checks are exact on the basis and sample one block for rounding",
    )
    verify.add_argument("--seed", type=_int_in_range(0, MAX_SEED), default=0, help="suite seed")
    verify.set_defaults(func=cmd_verify)

    # "-1e3" and "-inf" are values, not options: no option string looks like a number.
    for subparser in sub.choices.values():
        subparser._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf$|nan$)", re.IGNORECASE)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
