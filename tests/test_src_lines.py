import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SNIPPET = '''"""Module docstring,

over three lines."""

# A comment line.
import os  # a trailing comment leaves a code line


class Kind:
    """One-line class docstring."""

    def method(self):
        """Method docstring
        on two lines."""
        text = """a string that is not a docstring

        is code on every line"""
        return text
'''


def test_each_line_falls_in_one_kind():
    assert src_lines.count(SNIPPET) == {
        "code": 7, "docstring": 6, "comment": 1, "blank": 4, "total": 18,
    }


def test_the_table_covers_every_module_and_sums_them(capsys):
    rows = src_lines.table(ROOT)
    names = [name for name, _ in rows]
    assert names[-1] == "total" and "protocol.py" in names
    assert rows[-1][1]["total"] == sum(
        len((ROOT / "src" / "threesphere" / name).read_text().splitlines()) for name in names[:-1]
    )
    assert src_lines.main([str(ROOT)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[0] == "total"
