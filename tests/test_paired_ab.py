import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_paired_ab_times_a_checkout_against_itself():
    """One round is one job per side; both sides import this checkout under their own names."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_ab.py"), str(ROOT), str(ROOT), "--rounds", "1",
         "--", "chsh", "--angles-deg", "0", "-45", "-22.5", "22.5", "--analytic"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["ts_a", "ts_b", "calibration", "paired"]
    side = r"raw median [0-9.e-]+ s, calibrated median [0-9.e-]+ s$"
    assert all(re.search(side, line) for line in lines[:2])
    assert lines[2].endswith("over 3 runs")
    ratio = r"paired raw ratio ts_b/ts_a: median [0-9.]+ \[q1 [0-9.]+, q3 [0-9.]+\] over 1 rounds"
    assert re.fullmatch(ratio, lines[3])


def test_paired_ab_reports_a_failing_job():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_ab.py"), str(ROOT), str(ROOT),
         "--", "chsh", "--angles-deg", "0", "0", "0", "0", "--n", "10"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1 and "ts_a.cli exited 2" in result.stderr
