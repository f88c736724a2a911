import math

import pytest

from threesphere.tables import format_value, manifest_path, read_table, write_manifest, write_table

AWKWARD = [1.0 / 3.0, math.pi, 6.123233995736766e-17, -1.0, 0.0, 2.0**-1074, 1e300]


def test_seventeen_digits_round_trip_every_double():
    for value in AWKWARD:
        assert float(format_value(value)) == value


def test_csv_round_trip_is_exact(tmp_path):
    rows = [
        {"beta_deg": 22.5, "scalar_mean": v, "label": "row", "n": 10000, "seed": 7}
        for v in AWKWARD
    ]
    path = tmp_path / "table.csv"
    write_table(path, ["beta_deg", "scalar_mean", "label", "n", "seed"], rows, fmt="csv")
    back = read_table(path)
    assert back == rows


def test_json_round_trip_is_exact(tmp_path):
    rows = [
        {"beta_deg": 22.5, "scalar_mean": v, "label": "row", "n": 10000, "seed": 7}
        for v in AWKWARD
    ]
    path = tmp_path / "table.json"
    write_table(path, ["beta_deg", "scalar_mean", "label", "n", "seed"], rows, fmt="json")
    back = read_table(path)
    assert back == rows


def test_integer_columns_come_back_as_integers(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["n", "seed", "scalar_mean"], [{"n": 3, "seed": -1, "scalar_mean": 1.0}])
    (row,) = read_table(path)
    assert isinstance(row["n"], int) and isinstance(row["seed"], int)
    assert isinstance(row["scalar_mean"], float)


def test_rewriting_is_byte_identical(tmp_path):
    rows = [{"x": math.sqrt(2.0), "n": 5, "seed": 1}]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_table(first, ["x", "n", "seed"], rows)
    write_table(second, ["x", "n", "seed"], rows)
    assert first.read_bytes() == second.read_bytes()


def test_unknown_formats_are_refused(tmp_path):
    path = tmp_path / "t.xml"
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        write_table(path, ["n"], [{"n": 1}], fmt="xml")
    assert not path.exists()


def test_manifest_sits_next_to_the_data(tmp_path):
    data = tmp_path / "out.csv"
    data.write_text("x\n1\n")
    path = write_manifest(data, {"command": "demo", "parameters": {"n": 1}})
    assert path == manifest_path(data)
    assert path.name == "out.csv.manifest.json"
    assert "demo" in path.read_text()
