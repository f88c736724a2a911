"""The golden-output corpus: fixed command lines and the bytes they produce.

    PYTHONPATH=src python3 tests/golden/regen.py

rewrites the corpus from the working tree.  Each shape in :data:`SHAPES` is
one ``threesphere`` argv; its directory holds ``exit_code``, ``stdout``,
``stderr``, the data file under its own name, and the data file's manifest
without ``duration_seconds`` and ``created_utc`` and with
``parameters.out`` reduced to the file name.  The run's own path to the
data file is written as that file name in stdout too.  ``environment.json``
records what the floats and manifests depend on besides the code: numpy's
version, the SIMD features numpy dispatches to on this CPU, and the CPUs a
two-thread sum may use, which set the manifests' shard counts.

``tests/test_golden.py`` runs every shape and compares bytes.  A change
that alters any stored file says which one and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

CORPUS = Path(__file__).resolve().parent
ENVIRONMENT = CORPUS / "environment.json"


def _trials(command, fmt, threads, *argv):
    return [command, *argv, "--threads", str(threads), "--format", fmt, "--out", f"{command}.{fmt}"]


_SIMULATE = ("--alpha-deg", "10", "--beta-deg", "40", "--n", "200003", "--seed", "3")
_SCAN = ("--alpha-deg", "-1e3", "--beta-start", "0", "--beta-stop", "90", "--beta-step", "7.5",
         "--n", "100001", "--seed", "18446744073709551615")

SHAPES = {
    # The benchmark's four argv shapes, at fixed angles and seeds.
    "bench-simulate": ["simulate", "--alpha-deg", "12.5", "--beta-deg", "71.25", "--n", "20000000",
                       "--threads", "2", "--seed", "424242", "--out", "simulate.csv"],
    "bench-scan": ["scan", "--alpha-deg", "33.75", "--beta-start", "0", "--beta-stop", "180",
                   "--beta-step", "5", "--n", "1000000", "--threads", "1", "--seed", "9001",
                   "--out", "scan.csv"],
    "bench-chsh": ["chsh", "--maximize", "--step-deg", "0.75", "--analytic", "--seed", "5",
                   "--out", "chsh.csv"],
    "bench-verify": ["verify", "all", "--samples", "10000", "--seed", "31337"],
    # simulate and scan as CSV and JSON, on one and two threads; both n span several chunks.
    **{
        f"{command}-{fmt}-t{threads}": _trials(command, fmt, threads, *argv)
        for command, argv in (("simulate", _SIMULATE), ("scan", _SCAN))
        for fmt in ("csv", "json")
        for threads in (1, 2)
    },
    "chsh-angles": ["chsh", "--angles-deg", "-1e3", "45", "22.5", "67.5", "--analytic", "--seed", "2",
                    "--out", "chsh.csv"],
    # Step 7 degrees gives a grid that does not wrap: the exhaustive search.
    "chsh-maximize-7": ["chsh", "--maximize", "--step-deg", "7", "--analytic", "--seed", "1",
                        "--format", "json", "--out", "chsh.json"],
    "verify-1000": ["verify", "all", "--samples", "1000", "--seed", "7"],
    "verify-4097": ["verify", "all", "--samples", "4097", "--seed", "123"],
    # Refused lines: exit 2, a message on stderr, no data file.
    "refused-scan-step": ["scan", "--alpha-deg", "0", "--beta-start", "0", "--beta-stop", "10",
                          "--beta-step", "0", "--out", "scan.csv"],
    "refused-chsh-both": ["chsh", "--angles-deg", "0", "45", "22.5", "67.5", "--maximize",
                          "--analytic"],
    "refused-simulate-nan": ["simulate", "--alpha-deg", "nan", "--beta-deg", "0",
                             "--out", "simulate.csv"],
}


def environment() -> dict:
    """numpy's version, its enabled dispatch targets, and the CPUs a two-thread sum may use."""
    from numpy._core import _multiarray_umath as umath

    return {
        "numpy": np.__version__,
        "cpu_dispatch": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)],
        "cpus_up_to_2": min(os.cpu_count() or 1, 2),
    }


def run(argv: list, directory: Path) -> dict:
    """File name -> bytes of what ``argv`` produces, with its data file in ``directory``."""
    from threesphere.cli import main

    argv = list(argv)
    name = None
    if "--out" in argv:
        at = argv.index("--out") + 1
        name, argv[at] = argv[at], str(directory / argv[at])
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    stdout = out.getvalue()
    files = {"exit_code": f"{code}\n".encode(), "stderr": err.getvalue().encode()}
    if name is not None:
        stdout = stdout.replace(str(directory / name), name)
        if (directory / name).exists():
            files[name] = (directory / name).read_bytes()
            manifest = json.loads((directory / f"{name}.manifest.json").read_bytes())
            del manifest["duration_seconds"], manifest["created_utc"]
            manifest["parameters"]["out"] = name
            text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
            files[f"{name}.manifest.json"] = text.encode()
    files["stdout"] = stdout.encode()
    return files


def main() -> int:
    for stale in CORPUS.iterdir():
        if stale.is_dir() and stale.name != "__pycache__":
            shutil.rmtree(stale)
    for shape, argv in SHAPES.items():
        with tempfile.TemporaryDirectory() as scratch:
            files = run(argv, Path(scratch))
        (CORPUS / shape).mkdir()
        for file, content in files.items():
            (CORPUS / shape / file).write_bytes(content)
    ENVIRONMENT.write_text(json.dumps(environment(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
