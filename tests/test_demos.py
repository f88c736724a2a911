"""Each narrative demo runs to completion as a script, and so do the README's examples."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],  # as pyproject's filterwarnings
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_readme_python_blocks_run_in_order():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:  # later blocks use names the earlier ones import
        exec(compile(block, "README.md", "exec"), namespace)
