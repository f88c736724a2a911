import csv
import io
import math
import os
import stat

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
    fields = ["beta_deg", "scalar_mean", "label", "n", "seed"]
    write_table(path, fields, rows, fmt="csv")
    back = read_table(path)
    assert back == rows
    # The bytes are the csv module's rendering: no cell needs quoting.
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([format_value(row[name]) for name in fields] for row in rows)
    assert path.read_bytes() == text.getvalue().encode()


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


def _write_table_csv(path):
    write_table(path, ["x", "n"], [{"x": 0.5, "n": 1}])
    return path


def _write_table_json(path):
    write_table(path, ["x", "n"], [{"x": 0.5, "n": 1}], fmt="json")
    return path


def _write_manifest(path):
    return write_manifest(path, {"command": "demo"})


@pytest.mark.parametrize("write", [_write_table_csv, _write_table_json, _write_manifest])
def test_rewriting_a_longer_file_leaves_exactly_the_new_bytes(tmp_path, write):
    fresh = write(tmp_path / "fresh.csv")
    target = write(tmp_path / "reused.csv")
    target.write_text("old contents, much longer than the new ones\n" * 100)
    assert write(tmp_path / "reused.csv") == target
    assert target.read_bytes() == fresh.read_bytes()


def test_writing_through_a_symlink_updates_the_target_and_keeps_the_link(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("stale\n" * 50)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    write_table(link, ["n"], [{"n": 1}])
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text() == "n\n1\n"


def test_hard_links_keep_sharing_the_rewritten_file(tmp_path):
    first = tmp_path / "first.csv"
    first.write_text("stale\n" * 50)
    second = tmp_path / "second.csv"
    os.link(first, second)
    write_table(first, ["n"], [{"n": 1}])
    assert second.read_text() == "n\n1\n" and first.stat().st_ino == second.stat().st_ino


def test_tables_can_be_written_to_a_device():
    write_table(os.devnull, ["n"], [{"n": 1}])
    write_table(os.devnull, ["n"], [{"n": 1}], fmt="json")


def test_new_files_get_the_mode_open_w_gives(tmp_path):
    previous = os.umask(0o002)
    try:
        write_table(tmp_path / "new.csv", ["n"], [{"n": 1}])
        with open(tmp_path / "opened.csv", "w"):
            pass
    finally:
        os.umask(previous)
    mode = stat.S_IMODE((tmp_path / "new.csv").stat().st_mode)
    assert mode == 0o666 & ~0o002 == stat.S_IMODE((tmp_path / "opened.csv").stat().st_mode)
