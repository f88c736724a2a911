import importlib.util
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("paired_ab", ROOT / "tools" / "paired_ab.py")
paired_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_ab)


def test_paired_ab_times_a_checkout_against_itself():
    """One round is one job per side; both sides import this checkout under their own names."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_ab.py"), str(ROOT), str(ROOT), "--rounds", "1",
         "--", "chsh", "--angles-deg", "0", "-45", "-22.5", "22.5", "--analytic"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split()[0] for line in lines[:5]] == ["ts_a", "ts_b", "calibration", "paired", "ts_b"]
    side = r"raw median ([0-9.e-]+) s, calibrated median ([0-9.e-]+) s$"
    sides = [re.search(side, line).groups() for line in lines[:2]]
    calibration = re.fullmatch(r"calibration median ([0-9.e-]+) s over 3 runs", lines[2])
    ratio = r"paired raw ratio ts_b/ts_a: median ([0-9.]+) \[q1 ([0-9.]+), q3 ([0-9.]+)\] over 1 rounds"
    quartiles = re.fullmatch(ratio, lines[3]).groups()
    test = (r"ts_b faster in ([01]) of 1 rounds, sign test p = (1); "
            r"median ratio 95% bootstrap interval \[([0-9.]+), \3\]")
    wins, p, bound = re.fullmatch(test, lines[4]).groups()
    # The last line is the run as a BENCH_*.json paired_ab.runs[] entry, less "sides".
    assert len(lines) == 6
    record = json.loads(lines[5])
    assert record == {
        "argv": "chsh --angles-deg 0 -45 -22.5 22.5 --analytic",
        "raw_median_s": {"ts_a": float(sides[0][0]), "ts_b": float(sides[1][0])},
        "calibrated_median_s": {"ts_a": float(sides[0][1]), "ts_b": float(sides[1][1])},
        "calibration_median_s": float(calibration.group(1)),
        "paired_ratio": dict(zip(("median", "q1", "q3"), map(float, quartiles))),
        "rounds": 1,
        "ts_b_wins": int(wins),
        "sign_test_p": float(p),
        "bootstrap_95": [float(bound)] * 2,
    }


def test_paired_ab_reports_a_failing_job():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_ab.py"), str(ROOT), str(ROOT),
         "--", "chsh", "--angles-deg", "0", "0", "0", "0", "--n", "10"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1 and "ts_a.cli exited 2" in result.stderr


@pytest.mark.parametrize(
    "wins, rounds, p",
    [(9, 10, 22 / 1024), (1, 10, 22 / 1024), (5, 10, 1.0), (20, 20, 2 / 2**20), (0, 0, 1.0),
     (15, 20, 43_400 / 2**20)],
)
def test_sign_test_is_the_exact_two_sided_binomial_tail(wins, rounds, p):
    assert paired_ab.sign_test_p(wins, rounds) == p


def test_bootstrap_interval_is_fixed_and_brackets_the_median():
    ratios = [0.93, 0.97, 1.01, 0.95, 0.99, 1.04, 0.96, 0.98, 0.94, 1.00]
    low, high = paired_ab.bootstrap_median_interval(ratios)
    assert (low, high) == paired_ab.bootstrap_median_interval(list(ratios)) == (0.95, 1.0)
    assert min(ratios) <= low < statistics.median(ratios) < high <= max(ratios)
    assert paired_ab.bootstrap_median_interval([1.02] * 7) == (1.02, 1.02)
    # A different resampling seed may move the ends, never outside the data.
    other = paired_ab.bootstrap_median_interval(ratios, seed=1)
    assert min(ratios) <= other[0] <= other[1] <= max(ratios)
