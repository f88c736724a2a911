import csv
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from threesphere import cli, correlations, suites
from threesphere.cli import MAX_SAMPLES, MAX_SCAN_ROWS, MAX_SEED, MAX_TRIALS, _scan_betas, main
from threesphere.correlations import joint_expectation, quantum_reference
from threesphere.protocol import SIGN_CHUNK, PolarizerAngle, stream_summary
from threesphere.tables import read_table

TSIRELSON = 2.0 * math.sqrt(2.0)


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_the_estimate_and_manifest(tmp_path):
    out = tmp_path / "sim.csv"
    code = run("simulate", "--alpha-deg", 0, "--beta-deg", 22.5, "--n", 1000, "--seed", 7, "--out", out)
    assert code == 0
    (row,) = read_table(out)
    estimate = joint_expectation(
        PolarizerAngle.from_degrees(0.0), PolarizerAngle.from_degrees(22.5), 1000, 7
    )
    assert row["scalar_mean"] == estimate.scalar_mean
    assert (row["biv_yz"], row["biv_zx"], row["biv_xy"]) == estimate.bivector_mean
    assert row["bivector_norm"] == estimate.bivector_norm
    assert row["standard_error"] == estimate.standard_error
    assert row["quantum_ref"] == quantum_reference(
        PolarizerAngle.from_degrees(0.0), PolarizerAngle.from_degrees(22.5)
    )
    assert row["deviation"] == 0.0
    assert row["n"] == 1000 and row["seed"] == 7
    manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["parameters"]["n"] == 1000
    assert manifest["parameters"]["beta_rad"] == math.radians(22.5)


def test_simulate_at_equal_angles_has_zero_deviation(tmp_path):
    out = tmp_path / "sim.csv"
    assert run("simulate", "--alpha-deg", 0, "--beta-deg", 0, "--n", 100, "--seed", 7, "--out", out) == 0
    (row,) = read_table(out)
    assert row["scalar_mean"] == 1.0
    assert row["deviation"] == 0.0


def test_simulate_reruns_are_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ("simulate", "--alpha-deg", 30, "--beta-deg", 10, "--n", 50000, "--seed", 3)
    assert run(*args, "--out", first) == 0
    assert run(*args, "--out", second) == 0
    assert first.read_bytes() == second.read_bytes()


def test_simulate_sharded_equals_single_threaded(tmp_path):
    single = tmp_path / "one.csv"
    sharded = tmp_path / "many.csv"
    args = ("simulate", "--alpha-deg", 12, "--beta-deg", 75, "--n", 100000, "--seed", 11)
    assert run(*args, "--threads", 1, "--out", single) == 0
    assert run(*args, "--threads", 4, "--out", sharded) == 0
    assert single.read_bytes() == sharded.read_bytes()


def test_simulate_json_round_trips(tmp_path):
    out = tmp_path / "sim.json"
    assert run(
        "simulate", "--alpha-deg", 0, "--beta-deg", 22.5, "--n", 1000, "--seed", 7,
        "--format", "json", "--out", out,
    ) == 0
    (row,) = read_table(out)
    estimate = joint_expectation(
        PolarizerAngle.from_degrees(0.0), PolarizerAngle.from_degrees(22.5), 1000, 7
    )
    assert row["scalar_mean"] == estimate.scalar_mean
    assert row["biv_xy"] == estimate.bivector_mean[2]


def test_simulate_rejects_bad_trial_count(tmp_path):
    assert run("simulate", "--alpha-deg", 0, "--beta-deg", 0, "--n", 0, "--seed", 1,
               "--out", tmp_path / "x.csv") == 2


@pytest.mark.parametrize("n", [MAX_TRIALS + 1, 2**62])
def test_trial_counts_above_the_maximum_are_usage_errors(tmp_path, n):
    out = tmp_path / "x.csv"
    assert run("simulate", "--alpha-deg", 0, "--beta-deg", 0, "--n", n, "--out", out) == 2
    assert run("scan", "--alpha-deg", 0, "--beta-start", 0, "--beta-stop", 0, "--beta-step", 1,
               "--n", n, "--out", out) == 2
    assert run("chsh", "--angles-deg", 0, 1, 2, 3, "--analytic", "--n", n, "--out", out) == 2
    assert not out.exists()


@pytest.mark.parametrize("threads", [0, -3])
def test_thread_counts_below_one_are_usage_errors(tmp_path, threads):
    out = tmp_path / "x.csv"
    assert run("simulate", "--alpha-deg", 0, "--beta-deg", 0, "--n", 10, "--threads", threads,
               "--out", out) == 2
    assert run("scan", "--alpha-deg", 0, "--beta-start", 0, "--beta-stop", 10, "--beta-step", 5,
               "--n", 10, "--threads", threads, "--out", out) == 2
    assert not out.exists()


def test_seeds_outside_the_uint64_range_are_usage_errors(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for seed in (-1, MAX_SEED + 1):
        assert run("simulate", "--alpha-deg", 0, "--beta-deg", 0, "--seed", seed, "--out", out) == 2
        assert run("scan", "--alpha-deg", 0, "--beta-start", 0, "--beta-stop", 0, "--beta-step", 1,
                   "--seed", seed, "--out", out) == 2
        assert run("chsh", "--angles-deg", 0, 1, 2, 3, "--analytic", "--seed", seed) == 2
        assert run("verify", "protocol", "--samples", 1, "--seed", seed) == 2
        message = f"argument --seed: must be at least 0 and at most {MAX_SEED}, got {seed}"
        assert capsys.readouterr().err.count(message) == 4
    assert not out.exists()
    assert run("simulate", "--alpha-deg", 0, "--beta-deg", 0, "--n", 10, "--seed", MAX_SEED,
               "--out", out) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--alpha-deg", 0, "--beta-deg", 0, "--out", "x.csv", "--n", "1.5"),
        ("simulate", "--alpha-deg", 0, "--beta-deg", 0, "--out", "x.csv", "--seed", "7x"),
        ("verify", "protocol", "--samples", "1e3"),
    ],
)
def test_non_integer_counts_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    option, text = argv[-2:]
    assert f"argument {option}: invalid int value: {text!r}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_manifest_records_the_stream_plan(tmp_path):
    out = tmp_path / "sim.csv"
    assert run("simulate", "--alpha-deg", 0, "--beta-deg", 30, "--n", 200000, "--seed", 2,
               "--threads", 4, "--out", out) == 0
    manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
    assert manifest["stream"] == {
        "shards": min(4, os.cpu_count() or 1), "chunk_size": 65536, "chunks": 4
    }
    assert manifest["parameters"]["threads"] == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--alpha-deg", 0, "--beta-deg", 0, "--n", 10),
        ("scan", "--alpha-deg", 0, "--beta-start", 0, "--beta-stop", 10, "--beta-step", 5,
         "--n", 10),
        ("chsh", "--angles-deg", 0, -45, -22.5, 22.5, "--analytic"),
    ],
)
@pytest.mark.parametrize("out", ["absent/x.csv", "directory"], ids=["missing", "directory"])
def test_unwritable_outputs_are_io_errors(tmp_path, capsys, argv, out):
    (tmp_path / "directory").mkdir()
    assert run(*argv, "--out", tmp_path / out) == 1
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "Traceback" not in err


def test_unknown_arguments_exit_with_usage_error():
    assert run("simulate", "--alpha-deg", 0) == 2
    assert run("nonsense") == 2


def test_the_parser_is_built_once_and_keeps_no_state_between_calls():
    assert cli.build_parser() is cli.build_parser()
    assert run("chsh", "--angles-deg", 0, 1, 2, 3, "--analytic", "--seed", -1) == 2
    assert run("chsh", "--angles-deg", 0, 1, 2, 3, "--analytic") == 0


def test_manifests_record_every_parsed_option(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runs = [
        (
            ("simulate", "--alpha-deg", 30, "--beta-deg", 22.5, "--n", 1000, "--seed", 7,
             "--out", "sim.csv"),
            {
                "alpha_deg": 30.0,
                "beta_deg": 22.5,
                "alpha_rad": 0.5235987755982988,
                "beta_rad": 0.39269908169872414,
                "n": 1000,
                "seed": 7,
                "threads": 1,
                "format": "csv",
                "out": "sim.csv",
            },
        ),
        (
            ("scan", "--alpha-deg", 10, "--beta-start", 0, "--beta-stop", 90, "--beta-step", 45,
             "--n", 500, "--threads", 2, "--format", "json", "--out", "scan.json"),
            {
                "alpha_deg": 10.0,
                "alpha_rad": 0.17453292519943295,
                "beta_start_deg": 0.0,
                "beta_stop_deg": 90.0,
                "beta_step_deg": 45.0,
                "n": 500,
                "seed": 0,
                "threads": 2,
                "format": "json",
                "out": "scan.json",
            },
        ),
        (
            ("chsh", "--angles-deg", 0, -45, -22.5, 22.5, "--analytic", "--out", "chsh.csv"),
            {
                "angles_deg": [0.0, -45.0, -22.5, 22.5],
                "maximize": False,
                "step_deg": None,
                "analytic": True,
                "n": 0,
                "seed": 0,
                "format": "csv",
                "out": "chsh.csv",
            },
        ),
        (
            ("chsh", "--maximize", "--step-deg", 15, "--analytic", "--out", "max.csv"),
            {
                "angles_deg": None,
                "maximize": True,
                "step_deg": 15.0,
                "analytic": True,
                "n": 0,
                "seed": 0,
                "format": "csv",
                "out": "max.csv",
            },
        ),
    ]
    for argv, parameters in runs:
        assert run(*argv) == 0
        manifest = json.loads(Path(argv[-1] + ".manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert manifest["parameters"] == parameters
    capsys.readouterr()
    assert run("scan", "--help") == 0
    usage = capsys.readouterr().out
    for name in ("START", "STOP", "STEP"):
        assert f"--beta-{name.lower()} BETA_{name}" in usage


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_tabulates_the_reference_values(tmp_path):
    out = tmp_path / "scan.csv"
    assert run("scan", "--alpha-deg", 0, "--beta-start", 0, "--beta-stop", 90, "--beta-step", 45,
               "--n", 1000, "--seed", 5, "--out", out) == 0
    rows = read_table(out)
    assert [row["beta_deg"] for row in rows] == [0.0, 45.0, 90.0]
    for row in rows:
        beta = PolarizerAngle.from_degrees(row["beta_deg"])
        estimate = joint_expectation(PolarizerAngle.from_degrees(0.0), beta, 1000, 5)
        assert (row["biv_yz"], row["biv_zx"], row["biv_xy"]) == estimate.bivector_mean
    assert rows[0]["scalar_mean"] == 1.0
    assert abs(rows[1]["scalar_mean"]) <= 1e-12
    assert rows[2]["scalar_mean"] == -1.0


def _row_texts(path, fmt):
    """The rows of a data file as written, one ``{column: text}`` dict each.

    A CSV cell and the ``repr`` of a JSON number are 17-digit texts that
    round-trip their float, so equal text is equal bits.
    """
    if fmt == "csv":
        with open(path, newline="") as handle:
            return list(csv.DictReader(handle))
    rows = json.loads(Path(path).read_text())["rows"]
    return [{name: repr(value) for name, value in row.items()} for row in rows]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_scan_row_equals_the_simulate_row_bit_for_bit(tmp_path, fmt):
    # One array estimate gives the scan; one pair each gives the simulate rows.
    common = ("--alpha-deg", 17, "--n", 3000, "--seed", 9, "--format", fmt)
    scan = tmp_path / f"scan.{fmt}"
    assert run("scan", *common, "--beta-start", 0, "--beta-stop", 180, "--beta-step", 5,
               "--out", scan) == 0
    rows = _row_texts(scan, fmt)
    assert [float(row["beta_deg"]) for row in rows] == [5.0 * k for k in range(37)]
    for k, row in enumerate(rows):
        out = tmp_path / f"sim{k}.{fmt}"
        assert run("simulate", *common, "--beta-deg", row["beta_deg"], "--out", out) == 0
        (simulated,) = _row_texts(out, fmt)
        assert {name: simulated[name] for name in row} == row


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--alpha-deg={}", "--beta-deg", 0, "--n", 10),
        ("simulate", "--alpha-deg", 0, "--beta-deg={}", "--n", 10),
        ("scan", "--alpha-deg={}", "--beta-start", 0, "--beta-stop", 10, "--beta-step", 5,
         "--n", 10),
        ("chsh", "--angles-deg", 0, -45, "{}", 22.5, "--analytic"),
        ("chsh", "--angles-deg", "{}", -45, -22.5, 22.5, "--analytic"),
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_angles_are_usage_errors(tmp_path, capsys, argv, value):
    out = tmp_path / "x.csv"
    code = run(*(str(a).replace("{}", value) for a in argv), "--out", out)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []
    assert captured.err == f"error: angle must be finite, got {value}\n"


@pytest.mark.parametrize(
    "argv, recorded",
    [
        (("simulate", "--alpha-deg", "-1e3", "--beta-deg", 0, "--n", 10), ("alpha_deg", -1000.0)),
        (("scan", "--alpha-deg", "-1E3", "--beta-start", "-1e1", "--beta-stop", 0, "--beta-step", 5,
          "--n", 10), ("beta_start_deg", -10.0)),
        (("chsh", "--angles-deg", 0, "-1e3", 0, 0, "--analytic"), ("angles_deg", [0.0, -1000.0, 0.0, 0.0])),
    ],
)
def test_negative_angles_in_exponent_form_are_values(tmp_path, capsys, argv, recorded):
    out = tmp_path / "x.csv"
    assert run(*argv, "--out", out) == 0
    assert capsys.readouterr().err == ""
    name, value = recorded
    manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
    assert manifest["parameters"][name] == value


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_shorter_scan_over_a_longer_one_equals_a_fresh_write(tmp_path, monkeypatch, fmt):
    def scan(directory, stop):
        directory.mkdir(exist_ok=True)
        monkeypatch.chdir(directory)
        assert run("scan", "--alpha-deg", 10, "--beta-start", 0, "--beta-stop", stop,
                   "--beta-step", 5, "--n", 100, "--format", fmt, "--out", "scan.out") == 0
        return directory / "scan.out"

    assert len(read_table(scan(tmp_path / "reused", 180))) == 37
    reused = scan(tmp_path / "reused", 10)
    fresh = scan(tmp_path / "fresh", 10)
    assert reused.read_bytes() == fresh.read_bytes()

    def manifest(data):
        document = json.loads(Path(str(data) + ".manifest.json").read_text())
        del document["duration_seconds"], document["created_utc"]
        return document

    assert manifest(reused) == manifest(fresh)


def test_scan_full_grid_has_tiny_deviation(tmp_path):
    out = tmp_path / "scan.csv"
    assert run("scan", "--alpha-deg", 0, "--beta-start", 0, "--beta-stop", 180, "--beta-step", 5,
               "--n", 200, "--seed", 5, "--out", out) == 0
    rows = read_table(out)
    assert len(rows) == 37
    assert max(row["deviation"] for row in rows) <= 1e-12
    assert [row["beta_deg"] for row in rows] == sorted(row["beta_deg"] for row in rows)


def test_scan_rejects_malformed_ranges(tmp_path):
    out = tmp_path / "scan.csv"
    assert run("scan", "--alpha-deg", 0, "--beta-start", 10, "--beta-stop", 0, "--beta-step", 5,
               "--n", 10, "--seed", 5, "--out", out) == 2
    assert run("scan", "--alpha-deg", 0, "--beta-start", 0, "--beta-stop", 10, "--beta-step", -5,
               "--n", 10, "--seed", 5, "--out", out) == 2


@pytest.mark.parametrize(
    "bounds",
    [
        ("0", "10", "nan"),
        ("0", "inf", "5"),
        ("nan", "10", "5"),
        ("0", "10", "1e-12"),
        ("1e20", "1e20", "0.001"),  # start + k*step rounds to stop for millions of k
        ("-1e308", "1e308", "1e-300"),
    ],
)
def test_scan_rejects_unbounded_row_counts(tmp_path, bounds):
    start, stop, step = bounds
    out = tmp_path / "scan.csv"
    assert run("scan", "--alpha-deg", 0, f"--beta-start={start}", f"--beta-stop={stop}",
               f"--beta-step={step}", "--n", 10, "--out", out) == 2
    assert not out.exists()


def reference_betas(start, stop, step):
    betas = []
    k = 0
    while True:
        beta = start + k * step
        if beta > stop + 1e-9 * step:
            return betas
        betas.append(beta)
        k += 1


@pytest.mark.parametrize(
    "start, stop, step",
    [
        (0.0, 180.0, 5.0),
        (0.0, 1.0, 0.1),
        (0.0, 0.3, 0.1),
        (-3.3, 17.1, 0.1),
        (0.1, 0.7, 0.2),
        (5.0, 5.0, 1.0),
        (0.0, 1.0, 3.0),
        (1e-7, 1e-6, 1e-7),
        (0.0, 1.0, 1e-4),
        (1e20, 1e20, 1.0),
    ],
)
def test_scan_rows_match_the_stepwise_rule(start, stop, step):
    assert _scan_betas(start, stop, step) == reference_betas(start, stop, step)


def test_scan_row_budget_is_inclusive():
    assert len(_scan_betas(0.0, MAX_SCAN_ROWS - 1.0, 1.0)) == MAX_SCAN_ROWS


def test_scan_manifest_records_one_stream_for_all_rows(tmp_path):
    out = tmp_path / "scan.csv"
    assert run("scan", "--alpha-deg", 0, "--beta-start", 0, "--beta-stop", 90, "--beta-step", 45,
               "--n", 70000, "--seed", 5, "--out", out) == 0
    manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
    assert manifest["stream"] == {"shards": 1, "chunk_size": 65536, "chunks": 2}


def readme_column_lists():
    """The ``simulate`` and ``scan`` column lists under the README's "Output format"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Output format\n", 1)[1].split("\n#", 1)[0]
    lists = re.findall(r"`([a-z_]+(?:,\s+[a-z_]+)+)`", section)
    return [re.split(r",\s+", text) for text in lists]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_and_scan_columns_follow_the_readme(tmp_path, fmt):
    simulate_columns, scan_columns = readme_column_lists()
    sim, scan = tmp_path / f"sim.{fmt}", tmp_path / f"scan.{fmt}"
    common = ("--alpha-deg", 10, "--n", 1000, "--seed", 2, "--format", fmt)
    assert run("simulate", "--beta-deg", 30, *common, "--out", sim) == 0
    assert run("scan", "--beta-start", 0, "--beta-stop", 90, "--beta-step", 30, *common,
               "--out", scan) == 0
    for path, columns in ((sim, simulate_columns), (scan, scan_columns)):
        text = path.read_text()
        header = text.splitlines()[0].split(",") if fmt == "csv" else json.loads(text)["columns"]
        assert header == columns


# ---------------------------------------------------------------------------
# chsh
# ---------------------------------------------------------------------------


def test_chsh_analytic_at_the_derived_quadruple(tmp_path, capsys):
    out = tmp_path / "chsh.csv"
    assert run("chsh", "--angles-deg", 0, -45, -22.5, 22.5, "--analytic", "--out", out) == 0
    assert "2.8284271247" in capsys.readouterr().out
    (row,) = read_table(out)
    assert abs(row["chsh_value"] - TSIRELSON) <= 1e-6
    assert row["method"] == "analytic"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_chsh_records_the_given_angles_as_given(tmp_path, fmt):
    out = tmp_path / "chsh.out"
    assert run("chsh", "--angles-deg", 0.1, "-1e3", 1 / 3, 22.5, "--analytic",
               "--format", fmt, "--out", out) == 0
    (row,) = read_table(out)
    manifest = json.loads((tmp_path / "chsh.out.manifest.json").read_text())
    columns = ("alpha_deg", "alpha_prime_deg", "beta_deg", "beta_prime_deg")
    assert [row[name] for name in columns] == manifest["parameters"]["angles_deg"]


def test_chsh_analytic_with_equal_angles(capsys):
    assert run("chsh", "--angles-deg", 15, 15, 15, 15, "--analytic") == 0
    assert "2.0000000000" in capsys.readouterr().out


def test_chsh_monte_carlo_reads_the_model_and_analytic_reads_the_state(tmp_path):
    """``chsh`` reads the state; its terms are within 1e-15 of the model's scalar mean."""
    angles = (0, -45, -22.5, 22.5)
    pairs = {"e_ab": (0, 2), "e_ab_prime": (0, 3), "e_aprime_b": (1, 2), "e_aprime_bprime": (1, 3)}
    settings = [PolarizerAngle.from_degrees(angle) for angle in angles]
    out = tmp_path / "chsh.csv"
    assert run("chsh", "--angles-deg", *angles, "--analytic", "--out", out) == 0
    (row,) = read_table(out)
    for column, (i, j) in pairs.items():
        model = joint_expectation(settings[i], settings[j], 1000, 0).scalar_mean
        assert abs(row[column] - model) <= 1e-15


def test_chsh_maximize_reports_the_grid_maximum(tmp_path, capsys):
    out = tmp_path / "max.csv"
    assert run("chsh", "--maximize", "--step-deg", 2.5, "--analytic", "--out", out) == 0
    output = capsys.readouterr().out
    assert "settings:" in output
    (row,) = read_table(out)
    assert abs(row["chsh_value"] - TSIRELSON) <= 1e-4


def test_chsh_maximize_at_quarter_degree_saturates_the_bound(tmp_path):
    out = tmp_path / "max.csv"
    assert run("chsh", "--maximize", "--step-deg", 0.25, "--analytic", "--out", out) == 0
    (row,) = read_table(out)
    assert abs(row["chsh_value"] - TSIRELSON) <= 1e-4


@pytest.mark.parametrize(
    "mode, most",
    [(("--angles-deg", 0, -45, -22.5, 22.5), 1), (("--maximize", "--step-deg", 22.5), 2)],
)
def test_chsh_evaluates_the_reference_once_after_choosing_the_settings(monkeypatch, mode, most):
    """One call gives the row; ``--maximize`` adds only the call that fills its grid."""
    calls = []
    reference = cli.quantum_reference

    def counted(alpha, beta):
        calls.append(1)
        return reference(alpha, beta)

    monkeypatch.setattr(cli, "quantum_reference", counted)
    assert run("chsh", *mode, "--analytic") == 0
    assert 1 <= len(calls) <= most


@pytest.mark.parametrize("drift", [0.0, 1e-3])
@pytest.mark.parametrize("source", [("--analytic",)])
@pytest.mark.parametrize(
    "mode", [("--angles-deg", 0.1, "-1e3", 1 / 3, 22.5), ("--maximize", "--step-deg", 7)]
)
def test_the_chsh_value_is_the_combination_of_its_row_bit_for_bit(
    monkeypatch, tmp_path, mode, source, drift
):
    """Also for a correlation that moves from call to call, as a fresh estimate would."""
    correlation, calls = cli.quantum_reference, []

    def drifting(alpha, beta):
        calls.append(1)
        return correlation(alpha, beta) + drift * len(calls)

    monkeypatch.setattr(cli, "quantum_reference", drifting)
    out = tmp_path / "chsh.csv"
    assert run("chsh", *mode, *source, "--out", out) == 0
    (row,) = read_table(out)
    terms = row["e_ab"] + row["e_ab_prime"] + row["e_aprime_b"] - row["e_aprime_bprime"]
    assert row["chsh_value"] == abs(terms)


@pytest.mark.parametrize(
    "argv",
    [
        ("chsh", "--angles-deg", 0, -45, -22.5, 22.5, "--analytic"),
        ("chsh", "--maximize", "--step-deg", 10, "--analytic"),
        ("scan", "--alpha-deg", 17, "--beta-start", 0, "--beta-stop", 180, "--beta-step", 22.5,
         "--n", 5000, "--out", "scan.csv"),
        ("simulate", "--alpha-deg", 17, "--beta-deg", 40, "--n", 5000, "--out", "sim.csv"),
    ],
)
def test_monte_carlo_commands_make_one_sign_sum(monkeypatch, tmp_path, argv):
    """``simulate`` and ``scan`` make one sum; ``chsh`` reads no sign sum and makes none."""
    monkeypatch.chdir(tmp_path)
    calls = []
    summed = correlations.handedness_sign_sum

    def counted(*args, **kwargs):
        calls.append(args)
        return summed(*args, **kwargs)

    monkeypatch.setattr(correlations, "handedness_sign_sum", counted)
    assert run(*argv, "--seed", 5) == 0
    assert len(calls) == (0 if argv[0] == "chsh" else 1)


def test_chsh_rejects_bad_argument_combinations(capsys):
    """Each line fails at its own check, named by the message it prints."""
    modes = "give exactly one of four angles or --maximize"
    for argv, message in [
        (("--analytic",), modes),
        (("--angles-deg", 0, 1, 2, 3, "--maximize", "--step-deg", 1, "--analytic"), modes),
        (("--angles-deg", 0, 1, 2, 3, "--maximize", "--analytic"), modes),  # before the step check
        (("--angles-deg", 0, 1, 2, 3), "the following arguments are required: --analytic"),
        (("--maximize", "--analytic"), "--maximize needs --step-deg"),
        (("--angles-deg", 0, 1, 2, 3, "--step-deg", 5, "--analytic"), "--step-deg needs --maximize"),
        # A step outside the grid range fails the pairing check before its own range check.
        (("--angles-deg", 0, 1, 2, 3, "--step-deg", 0, "--analytic"), "--step-deg needs --maximize"),
    ]:
        assert run("chsh", *argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, argv


@pytest.mark.parametrize(
    "source",
    [("--n", 10), ("--analytic", "--threads", 2), ("--threads", 2), ("--analytic", "--n", 10)],
)
def test_chsh_takes_no_trial_count_or_threads(tmp_path, capsys, source):
    """``chsh`` draws no trials: it takes neither ``--n`` nor ``--threads``."""
    out = tmp_path / "chsh.csv"
    assert run("chsh", "--angles-deg", 0, -45, -22.5, 22.5, *source, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_chsh_maximize_refuses_a_fine_non_wrapping_grid_at_once(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "quantum_reference", lambda a, b: calls.append((a, b)))
    assert run("chsh", "--maximize", "--step-deg", 0.0441, "--analytic") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "4082 points" in err and "Traceback" not in err
    assert calls == []


@pytest.mark.parametrize("step", ["1e-320", "inf", "nan", "0", "-1"])
def test_chsh_maximize_step_outside_the_grid_range_is_a_usage_error(step, capsys):
    assert run("chsh", "--maximize", "--step-deg", step, "--analytic") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid step") and "Traceback" not in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("suite", ["algebra", "topology", "protocol", "all"])
def test_verify_suites_pass(suite, capsys):
    assert run("verify", suite, "--samples", 100, "--seed", 1) == 0
    output = capsys.readouterr().out
    assert "PASS" in output and "FAIL" not in output


def test_verify_protocol_reports_the_closed_form_check_even_for_one_sample(capsys):
    assert run("verify", "protocol", "--samples", 1, "--seed", 123) == 0
    assert "closed form matches the direct outcome product" in capsys.readouterr().out


def test_verify_rejects_unknown_suite():
    assert run("verify", "spacetime") == 2


@pytest.mark.parametrize("samples", [0, -5, MAX_SAMPLES + 1])
def test_verify_sample_counts_outside_the_range_are_usage_errors(samples, capsys):
    assert run("verify", "protocol", "--samples", samples) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "--samples" in captured.err and "Traceback" not in captured.err


@pytest.fixture
def thread_starts(monkeypatch):
    """Count the threads started from here on."""
    started = []
    start = threading.Thread.start

    def counting(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


@pytest.mark.parametrize("cpus", [1, 2, 64])
def test_verify_output_does_not_depend_on_the_thread_count(cpus, monkeypatch, capsys, thread_starts):
    """The suites run in the calling thread whatever the CPU count, so stdout never moves."""
    for samples in (1, suites.BLOCK - 1, 2 * suites.BLOCK + 1):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert run("verify", "all", "--samples", samples, "--seed", 5) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run("verify", "all", "--samples", samples, "--seed", 5) == 0
        assert capsys.readouterr().out == expected
    assert thread_starts == []


@pytest.mark.parametrize("suite, samples", [("topology", 2 * suites.BLOCK), ("all", suites.BLOCK - 1)])
def test_verify_of_one_suite_or_block_starts_no_thread(suite, samples, monkeypatch, thread_starts):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert run("verify", suite, "--samples", samples) == 0
    assert thread_starts == []


@pytest.mark.parametrize("cpus", [2, 64])
def test_a_sum_starts_one_thread_per_shard_beyond_the_first(cpus, tmp_path, monkeypatch, thread_starts):
    """The calling thread sums the first shard, so only the other shards start threads."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    n = 3 * SIGN_CHUNK
    args = ("simulate", "--alpha-deg", 12, "--beta-deg", 75, "--n", n, "--seed", 11)
    outputs = []
    for threads in (1, 2, 64):
        started = len(thread_starts)
        out = tmp_path / f"sim{threads}.csv"
        assert run(*args, "--threads", threads, "--out", out) == 0
        assert len(thread_starts) - started == stream_summary(n, threads)["shards"] - 1
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(thread_starts) == 1 + (min(cpus, 3) - 1)  # none, then --threads 2, then 64
    thread_starts.clear()
    chsh = ("chsh", "--angles-deg", 0, -45, -22.5, 22.5, "--analytic")
    assert run(*chsh, "--out", tmp_path / "c.csv") == 0
    assert run("verify", "protocol", "--samples", 100) == 0
    assert thread_starts == []


def raising(error):
    def suite(samples, seed):
        raise error("suite broke")

    return suite


@pytest.mark.parametrize("cpus", [1, 2])
def test_verify_suite_errors_keep_their_exit(cpus, monkeypatch, capsys, thread_starts):
    """A suite that raises ends the run at once: the later protocol suite never starts."""
    protocol_calls = []

    def protocol(samples, seed):
        protocol_calls.append(samples)
        return suites.protocol_suite(samples, seed)

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    counted = {**cli.SUITES, "protocol": protocol}
    monkeypatch.setattr(cli, "SUITES", {**counted, "topology": raising(ValueError)})
    assert run("verify", "all", "--samples", suites.BLOCK) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: suite broke\n"
    lines = captured.out.splitlines()
    assert len(lines) == 7 and all(line.startswith("[algebra] ") for line in lines)
    monkeypatch.setattr(cli, "SUITES", {**counted, "topology": raising(ArithmeticError)})
    with pytest.raises(ArithmeticError, match="suite broke"):
        run("verify", "all", "--samples", suites.BLOCK)
    assert protocol_calls == [] and thread_starts == []


def test_package_runs_as_a_module():
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "threesphere", "verify", "protocol", "--samples", "10"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "verify: all properties hold"
