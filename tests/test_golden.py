"""Every golden command line still produces its stored bytes (``tests/golden/regen.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_the_corpus_holds_exactly_the_shapes_and_stays_small():
    stored = {path.name for path in GOLDEN.iterdir() if path.is_dir() and path.name != "__pycache__"}
    assert stored == set(regen.SHAPES)
    files = [path for shape in stored for path in (GOLDEN / shape).iterdir()]
    assert sum(path.stat().st_size for path in files) < 100_000


@pytest.mark.parametrize("shape", sorted(regen.SHAPES))
def test_golden_output_is_byte_identical(shape, tmp_path):
    recorded = json.loads(regen.ENVIRONMENT.read_text())
    now = regen.environment()
    differences = {key: (recorded.get(key), now.get(key)) for key in recorded.keys() | now.keys()
                   if recorded.get(key) != now.get(key)}
    assert not differences, f"corpus was made under another environment (recorded, now): {differences}"
    produced = regen.run(regen.SHAPES[shape], tmp_path)
    stored = {path.name: path.read_bytes() for path in (GOLDEN / shape).iterdir()}
    assert sorted(produced) == sorted(stored)
    for name, content in stored.items():
        assert produced[name] == content, f"{shape}/{name} differs from the corpus"
