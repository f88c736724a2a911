"""Run one benchmark workload against the threesphere CLI and report its metrics.

    python3 perfbench/run.py --workload simulate-sharded --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  Jobs call ``threesphere.cli.main(argv)`` in this process, one
after another (a closed loop with one client), with argv drawn from
``--seed``.  One untimed warm-up job runs first; jobs then start until
``--seconds`` have passed, and every job's output is checked.

``--trace 0`` reports the end-to-end metrics.  The host's speed drifts with
the load of its neighbours, so a fixed calibration kernel runs between jobs
(and after each set-up import), and job and set-up times are rescaled to
the kernel's reference speed; the times as measured are reported next to
them.  ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics of the traced
ones, with the tracing overhead.  Metrics are printed by name and unit,
written as JSON under ``.perfbench_runs/``, and the last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import instrument
import spans
from workloads import WORKLOADS, reference_sign_sum, sign_sum_problems

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 7
TAIL_BEYOND = 10
# Median time of calibrate() on the machine the benchmark was defined on: a
# 2-vCPU Intel Xeon KVM guest, Python 3.11.7, numpy 2.4.6.
REFERENCE_CALIBRATION_S = 0.15
# A 720 x 720 float matrix (4 MB): larger than L2, so its scans load the shared cache.
_SCAN_MATRIX = np.cos(np.add.outer(np.arange(720.0), np.arange(720.0)))

# (name, unit, better) of every end-to-end metric the untraced run reports.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("job_p50_s", "s", "lower"),
    ("job_tail_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# Times the import in a fresh interpreter, then calibrates on the same CPU.
_SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
import threesphere, threesphere.cli
elapsed = time.perf_counter() - started
sys.path.insert(0, sys.argv[2])
from run import calibrate
print(repr(elapsed), repr(calibrate()))
"""


class ProgramMissing(Exception):
    pass


def load_program():
    """Import threesphere and the submodules the benchmark wraps from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "threesphere" / "cli.py").is_file():
        raise ProgramMissing(f"no threesphere package under {src}")
    sys.path.insert(0, str(src))
    import threesphere
    import threesphere.cli
    import threesphere.correlations
    import threesphere.protocol
    import threesphere.suites

    if src not in Path(threesphere.__file__).resolve().parents:
        raise ProgramMissing(f"threesphere was imported from {threesphere.__file__}, not {src}")
    return threesphere


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple:
    """Highest nearest-rank percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples beyond)``.  A tail below the median
    says nothing, so with fewer than ``2 * beyond`` samples no percentile
    qualifies; the maximum is returned as percentile 100 with 0 samples
    beyond, so the caller can say so.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * beyond:
        return ordered[-1], 100.0, 0
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, beyond


def measure_setup(repeats: int = SETUP_REPEATS) -> list:
    """``(import seconds, calibration seconds)`` of ``threesphere`` and ``threesphere.cli``
    in each of ``repeats`` fresh interpreters."""
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(ROOT / "src"), str(ROOT / "perfbench")],
            capture_output=True, text=True, check=True, timeout=60,
        )
        elapsed, calibration = map(float, done.stdout.split())
        samples.append((elapsed, calibration))
    return samples


def machine() -> dict:
    def getconf(name):
        try:
            done = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(done.stdout)
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    llc = next((size for size in map(getconf, ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE")) if size), None)
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "llc_bytes": llc,
        "memory_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
    }


def run_job(cli, argv) -> tuple:
    """Run one command line; returns (exit code, wall seconds, stdout, error)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback out of main is a failed job, not a failed run
            code, error = 1, repr(exc)
        wall = time.perf_counter() - started
    return code, wall, stdout.getvalue(), error or stderr.getvalue().strip()


def peak_bytes_per_sign(protocol, call: dict) -> float:
    """Peak traced allocation of one ``handedness_signs`` call, per sign produced."""
    tracemalloc.start()
    try:
        protocol.handedness_signs(call["seed"], call["count"], start=call["start"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / call["count"]


def calibrate() -> float:
    """Wall time of a fixed kernel: interpreted arithmetic, numpy streaming, column scans.

    The kernel is the benchmark's own and does the same work on every call,
    so its time tracks how fast the host is running at that moment.  Its
    three parts load the interpreter, memory bandwidth and the shared cache,
    which is where the workloads spend their time.
    """
    started = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    reference_sign_sum(1, 1 << 21)
    for k in range(0, len(_SCAN_MATRIX), 24):
        column = _SCAN_MATRIX[:, k : k + 1]
        (_SCAN_MATRIX + column).max(axis=0)
        (_SCAN_MATRIX - column).min(axis=0)
    return time.perf_counter() - started


def rescaled(wall: float, before: float, after: float) -> float:
    """``wall`` at the reference speed, given the calibrations on either side of it."""
    return wall * REFERENCE_CALIBRATION_S / ((before + after) / 2.0)


def measure(ts, workload, seed: int, seconds: float, traced: bool) -> dict:
    """Warm up, then run jobs for ``seconds``; traced runs alternate plain and traced jobs.

    A calibration runs between consecutive jobs, outside their timing.
    """
    work = RUNS / "work"
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    cli = ts.cli
    tracer = spans.Tracer()
    run_job(cli, workload.make(rng, work).argv)

    plain, traced_walls, problems, work_done = [], [], [], []
    failed = 0
    before = calibrate()
    started = time.perf_counter()
    while True:
        index = len(plain) + len(traced_walls)
        job = workload.make(rng, work)
        gc.collect()  # every job starts from the same heap, as a fresh CLI process would
        if traced and index % 2 == 1:
            points = instrument.patches(tracer, cli, ts.correlations, ts.suites)
            with spans.patched(points), tracer.job(index):
                code, wall, stdout, error = run_job(cli, job.argv)
            traced_walls.append(wall)
            before = calibrate()
        else:
            code, wall, stdout, error = run_job(cli, job.argv)
            after = calibrate()
            plain.append((wall, before, after))
            before = after
        found = workload.check(job, code, stdout)
        if error and code != 0:
            found.append(error)
        if found:
            failed += 1
            problems.append({"job": index, "argv": job.argv, "problems": found})
        else:
            work_done.append(workload.work(job, stdout))
        if time.perf_counter() - started >= seconds and (traced_walls or not traced):
            break
    sign_sum_checked = workload.streams and not found
    if sign_sum_checked:
        reference = sign_sum_problems(job)
        if reference:
            failed += 1
            problems.append({"job": index, "argv": job.argv, "problems": reference})
    return {
        "plain": plain, "traced": traced_walls, "failed": failed, "problems": problems,
        "work": work_done, "tracer": tracer, "sign_sum_checked": sign_sum_checked,
    }


def end_to_end(result: dict, workload) -> tuple:
    raw = [wall for wall, _, _ in result["plain"]]
    times = [rescaled(*entry) for entry in result["plain"]]
    setup = measure_setup()
    tail, percentile, beyond = tail_percentile(times)
    p50 = statistics.median(times)
    work = statistics.median(result["work"]) if result["work"] else 0.0
    metrics = {
        "setup_s": statistics.median(rescaled(t, c, c) for t, c in setup),
        "job_p50_s": p50,
        "job_tail_s": tail,
        "work_per_s": work / p50,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "raw_setup_s": statistics.median(t for t, _ in setup),
        "raw_job_p50_s": statistics.median(raw),
        "raw_job_tail_s": tail_percentile(raw)[0],
        "setup_import_and_calibration_s": setup,
        "calibration_s": [(b, a) for _, b, a in result["plain"]],
        "job_tail_percentile": percentile,
        "job_tail_samples_beyond": beyond,
        "work_unit": workload.work_unit,
        "work_per_job": work,
    }
    return metrics, notes


def per_layer(ts, result: dict) -> tuple:
    tracer = result["tracer"]
    per_job = [instrument.job_metrics(s, a) for s, a in tracer.by_job().values()]
    metrics = instrument.median_metrics(per_job)
    streams = [s.attrs for s in tracer.spans if s.name == "protocol.handedness_signs"]
    biggest = max(streams, key=lambda a: a["count"], default=None)
    metrics["protocol.peak_bytes_per_sign"] = (
        peak_bytes_per_sign(ts.protocol, biggest) if biggest else 0.0
    )
    untraced = statistics.median(wall for wall, _, _ in result["plain"])
    metrics["tracing.overhead_s"] = statistics.median(result["traced"]) - untraced
    notes = {
        "peak_bytes_per_sign_call": biggest,
        "untraced_job_p50_s": untraced,
        "traced_job_p50_s": statistics.median(result["traced"]),
        "accounting_per_job": [
            {k: m[k] for k in ("tracing.job_wall_s", "tracing.self_sum_s", "tracing.parallel_overlap_s")}
            for m in per_job
        ],
    }
    return {name: metrics[name] for name, _, _ in instrument.PER_LAYER}, notes


def report(args, workload, result, metrics, units, notes, info) -> dict:
    attempted = len(result["plain"]) + len(result["traced"])
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"jobs {attempted}  failed {result['failed']}")
    print(f"  template: threesphere {workload.template}")
    print(f"  machine: nproc {info['nproc']}, Python {info['python']}, numpy {info['numpy']}, "
          f"LLC {info['llc_bytes']} B, memory {info['memory_bytes']} B")
    for name, value in metrics.items():
        print(f"  {name:<38} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':<38} {result['failed'] / attempted:>16.6g} "
          f"({result['failed']} of {attempted} jobs)")
    if "job_tail_percentile" in notes:
        print(f"  job_tail_s is p{notes['job_tail_percentile']:.1f} of {len(result['plain'])} jobs, "
              f"{notes['job_tail_samples_beyond']} beyond; work_per_s counts {workload.work_unit}")
        print(f"  times are rescaled to the reference calibration speed; as measured: job p50 "
              f"{notes['raw_job_p50_s']:.6g} s, tail {notes['raw_job_tail_s']:.6g} s, "
              f"setup {notes['raw_setup_s']:.6g} s")
    if "traced_job_p50_s" in notes:
        print(f"  tracing overhead: traced job p50 {notes['traced_job_p50_s']:.6g} s - untraced "
              f"{notes['untraced_job_p50_s']:.6g} s; layer self times plus cli.self_s sum to "
              f"tracing.self_sum_s = job wall + parallel overlap")
    for entry in result["problems"][:5]:
        print(f"  FAILED job {entry['job']}: {'; '.join(entry['problems'][:3])}")
    return {
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        ts = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    info = machine()
    result = measure(ts, workload, args.seed, args.seconds, traced=bool(args.trace))
    if args.trace:
        metrics, notes = per_layer(ts, result)
        units = {name: unit for name, unit, _ in instrument.PER_LAYER}
    else:
        metrics, notes = end_to_end(result, workload)
        units = {name: unit for name, unit, _ in END_TO_END}
    line = report(args, workload, result, metrics, units, notes, info)

    stem = f"{workload.name}.seed{args.seed}.trace{args.trace}"
    path = RUNS / f"{stem}.json"
    document = {
        "workload": workload.name, "why": workload.why, "template": workload.template,
        "seed": args.seed, "seconds": args.seconds, "machine": info, **line,
        "failed_frac": result["failed"] / line["attempted"], "notes": notes,
        "sign_sum_checked": result["sign_sum_checked"],
        "job_wall_s": {"untraced": result["plain"], "traced": result["traced"]},
        "problems": result["problems"],
    }
    path.write_text(json.dumps(document, indent=2) + "\n")
    if args.trace:
        (RUNS / f"{stem}.spans.json").write_text(json.dumps(result["tracer"].to_json()) + "\n")
    print(f"  results -> {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
