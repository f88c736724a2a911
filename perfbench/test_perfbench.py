"""Tests of the benchmark's own code: statistics, span arithmetic, tracing and output checks.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import json
import math
import random
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import instrument
import run
import spans
import workloads
from workloads import Job

ts = run.load_program()


# ------------------------------------------------------------ tail percentile


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert run.tail_percentile(samples) == (90, 90.0, 10)


@pytest.mark.parametrize("n, rank", [(20, 10), (31, 21)])
def test_tail_percentile_from_twenty_samples_is_at_least_the_median(n, rank):
    samples = [float(k) for k in range(1, n + 1)]
    random.Random(n).shuffle(samples)
    value, percentile, beyond = run.tail_percentile(samples)
    assert (value, beyond) == (float(rank), 10)
    assert percentile == pytest.approx(100.0 * rank / n) and percentile >= 50.0


@pytest.mark.parametrize("n", [1, 5, 11, 19])
def test_tail_percentile_falls_back_to_the_maximum_below_twenty_samples(n):
    assert run.tail_percentile([float(k) for k in range(n)]) == (n - 1.0, 100.0, 0)


# ------------------------------------------------------------ span arithmetic


def _tree():
    """cli root [0,10]; A [1,4] with 1 s of aggregated calls; B [5,9] with parallel C [5,8], D [6,9]."""
    span = spans.Span
    tree = [
        span(1, "cli.main", 0, None, 0.0, 10.0),
        span(2, "correlations.a", 0, 1, 1.0, 4.0),
        span(3, "correlations.b", 0, 1, 5.0, 9.0),
        span(4, "protocol.c", 0, 3, 5.0, 8.0),
        span(5, "protocol.d", 0, 3, 6.0, 9.0),
    ]
    return tree, [spans.Aggregate("algebra.e", 0, 2, count=100, busy=1.0)]


def test_union_length_merges_overlaps_and_nesting():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(5, 8), (0, 1), (6, 9), (6, 7)]) == 5.0


def test_self_time_subtracts_children_and_counts_sibling_overlap():
    tree, aggregates = _tree()
    own, overlap = spans.self_times(tree, aggregates)
    assert own == {1: 3.0, 2: 2.0, 3: 0.0, 4: 3.0, 5: 3.0}
    assert overlap == 2.0
    assert sum(own.values()) + 1.0 == tree[0].duration + overlap


def test_layer_self_times_sum_to_wall_plus_overlap():
    tree, aggregates = _tree()
    layers = spans.layer_self_times(tree, aggregates)
    assert layers == {"cli": 3.0, "correlations": 2.0, "protocol": 6.0, "algebra": 1.0}
    assert sum(layers.values()) == 10.0 + 2.0


# ------------------------------------------------------------------- tracer


def test_tracer_parents_worker_threads_and_aggregates_leaves():
    tracer = spans.Tracer()
    leaf = tracer.aggregate("algebra.leaf", lambda x: x + 1)
    shard = tracer.span("protocol.shard", lambda x: x * 2, lambda a, k, r: {"x": a[0]})

    def estimate():
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(leaf, range(2))) == [1, 2]
            return sum(pool.map(shard, range(4)))

    estimate = tracer.span("correlations.estimate", estimate)
    assert leaf(1) == 2  # outside a job: untraced
    with tracer.job(7):
        assert estimate() == 12
        assert [leaf(k) for k in range(3)] == [1, 2, 3]
    (job_spans, aggregates), = tracer.by_job().values()
    root = next(s for s in job_spans if s.parent is None)
    est = next(s for s in job_spans if s.name == "correlations.estimate")
    shards = [s for s in job_spans if s.name == "protocol.shard"]
    assert est.parent == root.id and {s.parent for s in shards} == {est.id}
    assert sorted(s.attrs["x"] for s in shards) == [0, 1, 2, 3]
    assert sorted((a.name, a.parent, a.count) for a in aggregates) == sorted(
        [("algebra.leaf", root.id, 3), ("algebra.leaf", est.id, 2)])
    own, overlap = spans.self_times(job_spans, aggregates)
    busy = sum(a.busy for a in aggregates)
    assert sum(own.values()) + busy == pytest.approx(root.duration + overlap, abs=1e-12)
    json.dumps(tracer.to_json())


def test_patched_restores_attributes_on_error():
    class Holder:
        value = 1

    with pytest.raises(RuntimeError):
        with spans.patched([(Holder, "value", 2)]):
            assert Holder.value == 2
            raise RuntimeError
    assert Holder.value == 1


def _traced(argv):
    tracer = spans.Tracer()
    before = {name: getattr(ts.cli, name) for name in ("joint_expectation", "SUITES", "write_table")}
    with spans.patched(instrument.patches(tracer, ts.cli, ts.correlations, ts.suites)):
        with tracer.job(0):
            assert ts.cli.main(argv) == 0
    assert before == {name: getattr(ts.cli, name) for name in before}
    (job_spans, aggregates), = tracer.by_job().values()
    metrics = instrument.job_metrics(job_spans, aggregates)
    assert metrics["tracing.self_sum_s"] == pytest.approx(
        metrics["tracing.job_wall_s"] + metrics["tracing.parallel_overlap_s"], abs=1e-9)
    return metrics


def test_traced_scan_counts_every_estimate_and_repeated_sum(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    metrics = _traced(["scan", "--alpha-deg", "10", "--beta-start", "0", "--beta-stop", "180",
                       "--beta-step", "5", "--n", "1000", "--seed", "3", "--out", str(out)])
    assert metrics["protocol.stream_calls"] == metrics["correlations.estimate_calls"] == 37
    assert metrics["protocol.signs"] == 37_000
    assert metrics["correlations.sign_sum_useful_ratio"] == pytest.approx(1 / 37)
    assert metrics["tables.rows_written"] == 37
    assert metrics["tables.bytes_written"] > out.stat().st_size


def test_traced_sharded_simulate_reports_parallel_shards(tmp_path, capsys):
    metrics = _traced(["simulate", "--alpha-deg", "0", "--beta-deg", "30", "--n", "200000",
                       "--threads", "2", "--out", str(tmp_path / "sim.csv")])
    assert metrics["protocol.stream_calls"] == 2
    assert metrics["correlations.sign_sum_useful_ratio"] == 1.0
    assert metrics["correlations.shard_parallelism"] > 0.0


def test_traced_chsh_counts_grid_calls(tmp_path, capsys):
    metrics = _traced(["chsh", "--maximize", "--step-deg", "22.5", "--analytic"])
    assert metrics["correlations.chsh_grid_points"] == 8
    assert metrics["correlations.chsh_correlation_calls"] == 8 * 8 + 4
    assert metrics["correlations.chsh_search_s"] > 0.0
    assert metrics["protocol.stream_calls"] == 0


def test_traced_verify_charges_algebra_topology_and_suites(capsys):
    metrics = _traced(["verify", "all", "--samples", "20", "--seed", "1"])
    assert metrics["suites.instances"] == 20 * 19
    assert metrics["suites.checks_failed"] == 0
    assert metrics["algebra.product_calls"] > 0 and metrics["topology.calls"] > 0
    assert metrics["protocol.stream_calls"] == 2


# ------------------------------------------------------------ output checks


def _run(workload, job):
    code, _, stdout, _ = run.run_job(ts.cli, job.argv)
    return workload.check(job, code, stdout), code, stdout


def _rewrite(path: Path, edit):
    rows = workloads.read_rows(path)
    edit(rows)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_reference_sign_sum_matches_the_scalar_generator_and_the_program():
    seed = 2**40 + 17
    scalar = sum(workloads.splitmix64_sign(seed, i) for i in range(3000))
    assert workloads.reference_sign_sum(seed, 3000, chunk=7) == scalar
    assert workloads.reference_sign_sum(seed, 3000) == scalar
    assert int(ts.protocol.handedness_signs(seed, 3000).sum()) == scalar


@pytest.fixture
def small_streams(monkeypatch):
    monkeypatch.setattr(workloads, "SIMULATE_N", 5000)
    monkeypatch.setattr(workloads, "SCAN_N", 2000)


@pytest.mark.parametrize("name", ["simulate-sharded", "scan-repeat"])
def test_stream_checks_accept_real_output_and_reject_corrupted_rows(name, tmp_path, small_streams):
    workload = workloads.WORKLOADS[name]
    job = workload.make(random.Random(4), tmp_path)
    problems, _, _ = _run(workload, job)
    assert problems == [] and workloads.sign_sum_problems(job) == []
    pristine = job.out.read_text()

    def corrupt(field, value):
        job.out.write_text(pristine)
        _rewrite(job.out, lambda rows: rows[-1].__setitem__(field, value))
        return workload.check(job, 0, "")

    assert corrupt("biv_zx", "1e-300")
    assert corrupt("biv_xy", "0.5")
    assert corrupt("scalar_mean", "0.25")
    assert corrupt("n", "17")
    assert corrupt("seed", str(job.params["seed"] + 1))
    job.out.write_text(pristine)
    assert workload.check(job, 1, "")

    # A sign sum off by one pair of trials still passes the 6-sigma bound; the reference catches it.
    n = job.params["n"]

    def shift_sum(rows):
        for row in rows:
            s = math.sin(2.0 * (math.radians(job.params["alpha_deg"]) - math.radians(float(row["beta_deg"]))))
            row["biv_xy"] = repr((round(float(row["biv_xy"]) * n / s) + 2) / n * s) if s else row["biv_xy"]

    _rewrite(job.out, shift_sum)
    assert workload.check(job, 0, "") == []
    assert workloads.sign_sum_problems(job)


def test_stream_check_rejects_a_manifest_that_does_not_match_the_argv(tmp_path, small_streams):
    workload = workloads.WORKLOADS["scan-repeat"]
    job = workload.make(random.Random(5), tmp_path)
    assert _run(workload, job)[0] == []
    manifest = Path(str(job.out) + ".manifest.json")
    document = json.loads(manifest.read_text())
    document["parameters"]["beta_step_deg"] = 2.5
    manifest.write_text(json.dumps(document))
    assert workload.check(job, 0, "")


def test_chsh_check_rejects_a_wrong_value_or_settings(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CHSH_STEP_DEG", 22.5)
    workload = workloads.WORKLOADS["chsh-grid"]
    job = workload.make(random.Random(6), tmp_path)
    problems, _, stdout = _run(workload, job)
    assert problems == []
    pristine = job.out.read_text()
    for field, value in [("chsh_value", repr(2.0 * math.sqrt(2.0) - 1e-9)),
                         ("beta_prime_deg", "45"), ("method", "monte-carlo")]:
        job.out.write_text(pristine)
        _rewrite(job.out, lambda rows: rows[0].__setitem__(field, value))
        assert workload.check(job, 0, stdout), field
    # A consistent table at settings that do not reach 2*sqrt(2).
    job.out.write_text(pristine)
    _rewrite(job.out, lambda rows: rows[0].update(
        alpha_deg="0", alpha_prime_deg="0", beta_deg="0", beta_prime_deg="0", chsh_value="2.0"))
    assert workload.check(job, 0, stdout)
    job.out.write_text(pristine)
    assert workload.check(job, 0, "CHSH = 2.0\n") == []
    assert workload.check(job, 2, stdout)
    assert workload.work(job, stdout) == 8.0**4


def test_verify_check_rejects_a_corrupted_transcript(capsys):
    workload = workloads.WORKLOADS["verify-suites"]
    job = Job(["verify", "all", "--samples", "20", "--seed", "2"], {"samples": 20, "seed": 2}, None)
    problems, code, stdout = _run(workload, job)
    assert problems == [] and code == 0
    assert workload.work(job, stdout) == 20 * 19
    lines = stdout.splitlines()
    corrupted = [
        stdout.replace("PASS", "FAIL", 1),
        "\n".join(lines[:-1]) + "\n",
        "\n".join(lines[:-1] + ["verify: FAILURES above"]) + "\n",
        "\n".join(line for line in lines if not line.startswith("[topology]")) + "\n",
        stdout.replace("max residual 0.000e+00 (tol 0.0e+00)", "max residual 1.000e-30 (tol 0.0e+00)", 1),
        "Traceback (most recent call last):\n" + stdout,
    ]
    for text in corrupted:
        assert text != stdout
        assert workload.check(job, 0, text), text[:80]
    assert workload.check(job, 1, stdout)


# ------------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == instrument.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25


def test_rescaled_divides_by_the_mean_of_the_bracketing_calibrations():
    ref = run.REFERENCE_CALIBRATION_S
    assert run.rescaled(2.0, ref, ref) == pytest.approx(2.0)
    assert run.rescaled(2.0, ref, 3.0 * ref) == pytest.approx(1.0)
