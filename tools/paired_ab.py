"""Time one command line on two checkouts, alternating their jobs in one process.

    python3 tools/paired_ab.py ROOT_A ROOT_B [--rounds 20] -- simulate --n 20000000 ...

Each checkout's ``src/threesphere`` is copied under its own package name
(``ts_a``, ``ts_b``), so both import into this interpreter and share its
heap.  Every round runs one job of each side through ``cli.main(argv)``,
the side that goes first alternating, with ``perfbench/run.py``'s
``calibrate()`` before each job and after the last.  The report gives each
side's median raw wall time and median calibrated time, the median
calibration, and the median over rounds of the B/A ratio of the round's two
raw times, with its quartiles.  The two jobs of a round see the same host
phase, so the paired ratio needs no rescaling: a calibrated difference the
raw ratio does not show comes from the calibration, not from the code.

Its fifth line says whether the difference is real: the rounds in which
``ts_b`` was faster, the exact two-sided sign-test p-value of that count
(rounds with equal times are left out of the test), and a percentile
bootstrap 95% interval of the median ratio, from 10,000 resamples drawn
with a fixed seed.  The null is the same command with one checkout on both
sides, ``paired_ab.py ROOT ROOT``: its interval shows how far a ratio moves
when the code does not change.  Then comes one line of JSON: the same numbers
as an entry of a ``BENCH_*.json`` file's ``paired_ab.runs``, rounded as printed,
without the ``sides`` key, which names the two checkouts and is the caller's
to fill in.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import random
import shlex
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SIDES = ("ts_a", "ts_b")


def load(roots, into: Path) -> list:
    """Import each root's ``src/threesphere`` as its own package; returns their ``cli`` modules."""
    for name, root in zip(SIDES, roots):
        source = Path(root) / "src" / "threesphere"
        if not (source / "cli.py").is_file():
            raise SystemExit(f"error: no threesphere package under {Path(root) / 'src'}")
        shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(into))
    return [importlib.import_module(f"{name}.cli") for name in SIDES]


def job(cli, argv) -> float:
    """Wall seconds of one ``cli.main(argv)``, its output discarded."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        started = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - started
    if code != 0:
        raise SystemExit(f"error: {cli.__name__} exited {code}: {err.getvalue().strip()}")
    return wall


def measure(clis, argv, rounds: int, calibrate) -> dict:
    """Raw walls and the calibrations on either side of each job, per side."""
    for cli in clis:  # warm-up, untimed
        job(cli, argv)
    walls = {name: [] for name in SIDES}
    before = calibrate()
    calibrations = [before]
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for side in order:
            wall = job(clis[side], argv)
            after = calibrate()
            walls[SIDES[side]].append((wall, before, after))
            calibrations.append(after)
            before = after
    return {"walls": walls, "calibrations": calibrations}


def sign_test_p(wins: int, rounds: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` in ``rounds`` fair coin flips."""
    tail = sum(math.comb(rounds, k) for k in range(min(wins, rounds - wins) + 1))
    return min(1.0, 2.0 * tail / 2**rounds)


def bootstrap_median_interval(ratios, resamples: int = 10_000, seed: int = 0) -> tuple:
    """Percentile bootstrap 95% interval of the median of ``ratios``, from a fixed seed."""
    draw = random.Random(seed).choices
    medians = [statistics.median(draw(ratios, k=len(ratios))) for _ in range(resamples)]
    cuts = statistics.quantiles(medians, n=40, method="inclusive")
    return cuts[0], cuts[-1]


def _digits(value: float, significant: int) -> float:
    """``value`` rounded to ``significant`` digits, as ``:.{significant}g`` prints it."""
    return float(f"{value:.{significant}g}")


def report(roots, argv, result, rescaled) -> None:
    walls = result["walls"]
    raw = {name: statistics.median(w for w, _, _ in walls[name]) for name in SIDES}
    calibrated = {name: statistics.median(rescaled(*entry) for entry in walls[name]) for name in SIDES}
    calibration = statistics.median(result["calibrations"])
    for name, root in zip(SIDES, roots):
        print(f"{name} {root}: raw median {raw[name]:.6g} s, "
              f"calibrated median {calibrated[name]:.6g} s")
    print(f"calibration median {calibration:.6g} s over {len(result['calibrations'])} runs")
    ratios = [b[0] / a[0] for a, b in zip(walls["ts_a"], walls["ts_b"])]
    # quantiles() needs two values; the ratio of a single round is its own quartiles.
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    print(f"paired raw ratio ts_b/ts_a: median {median:.4f} [q1 {q1:.4f}, q3 {q3:.4f}] "
          f"over {len(ratios)} rounds")
    wins, ties = sum(r < 1.0 for r in ratios), sum(r == 1.0 for r in ratios)
    p = sign_test_p(wins, len(ratios) - ties)
    low, high = bootstrap_median_interval(ratios)
    print(f"ts_b faster in {wins} of {len(ratios)} rounds, sign test p = {p:.3g}; "
          f"median ratio 95% bootstrap interval [{low:.4f}, {high:.4f}]")
    print(json.dumps({  # one BENCH_*.json paired_ab.runs[] entry, rounded as printed above
        "argv": shlex.join(argv),
        "raw_median_s": {name: _digits(raw[name], 6) for name in SIDES},
        "calibrated_median_s": {name: _digits(calibrated[name], 6) for name in SIDES},
        "calibration_median_s": _digits(calibration, 6),
        "paired_ratio": {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)},
        "rounds": len(ratios),
        "ts_b_wins": wins,
        "sign_test_p": _digits(p, 3),
        "bootstrap_95": [round(low, 4), round(high, 4)],
    }))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv:
        print("usage: paired_ab.py ROOT_A ROOT_B [--rounds N] -- <threesphere argv>", file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root_a")
    parser.add_argument("root_b")
    parser.add_argument("--rounds", type=int, default=20, help="jobs per side, at least 1")
    args = parser.parse_args(argv[:split])
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    job_argv = argv[split + 1 :]

    sys.path.insert(0, str(PERFBENCH))
    run = importlib.import_module("run")
    roots = (args.root_a, args.root_b)
    with tempfile.TemporaryDirectory() as into:
        clis = load(roots, Path(into))
        result = measure(clis, job_argv, args.rounds, run.calibrate)
    report(roots, job_argv, result, run.rescaled)
    return 0


if __name__ == "__main__":
    sys.exit(main())
