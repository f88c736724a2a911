"""Every golden command line still produces its stored bytes (``tests/golden/regen.py``)."""

import importlib.util
import json
import os
import subprocess
import sys
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


def test_one_cpu_changes_only_the_shards_of_the_two_thread_manifests(monkeypatch, tmp_path):
    """With ``os.cpu_count`` at 1 a two-thread sum runs on one thread.  Every file keeps
    its corpus bytes but the manifests of the two-thread shapes, whose ``stream.shards``
    reads 1 where the corpus has 2; the rest of each of those manifests is unchanged."""
    recorded = json.loads(regen.ENVIRONMENT.read_text())
    if recorded["numpy"] != regen.environment()["numpy"]:
        pytest.skip("the corpus was made under another numpy version")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    shards = {}
    for shape, argv in regen.SHAPES.items():
        (tmp_path / shape).mkdir()
        produced = regen.run(argv, tmp_path / shape)
        stored = {path.name: path.read_bytes() for path in (GOLDEN / shape).iterdir()}
        assert sorted(produced) == sorted(stored), shape
        for name in sorted(name for name in stored if produced[name] != stored[name]):
            assert name.endswith(".manifest.json"), f"{shape}/{name} differs from the corpus"
            ours, theirs = json.loads(produced[name]), json.loads(stored[name])
            shards[shape] = (ours["stream"].pop("shards"), theirs["stream"].pop("shards"))
            assert ours == theirs, f"{shape}/{name} differs beyond stream.shards"
    two_threads = [shape for shape, argv in regen.SHAPES.items()
                   if "--threads" in argv and argv[argv.index("--threads") + 1] == "2"]
    assert len(two_threads) == 5
    assert shards == {shape: (1, 2) for shape in two_threads}


# Runs every shape in one interpreter and prints the dispatch targets it saw and the
# files that differ from the corpus, as JSON.
_BASELINE_RUN = """
import importlib.util, json, sys, tempfile
from pathlib import Path
spec = importlib.util.spec_from_file_location("golden_regen", sys.argv[1])
regen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(regen)
differs = []
for shape, argv in regen.SHAPES.items():
    with tempfile.TemporaryDirectory() as scratch:
        produced = regen.run(argv, Path(scratch))
    stored = {path.name: path.read_bytes() for path in (regen.CORPUS / shape).iterdir()}
    differs += [f"{shape}/{name}" for name in sorted(produced.keys() | stored.keys())
                if produced.get(name) != stored.get(name)]
print(json.dumps({"cpu_dispatch": regen.environment()["cpu_dispatch"], "differs": differs}))
"""


def test_golden_output_does_not_depend_on_simd_dispatch():
    """Every shape gives the corpus bytes with numpy held to its baseline: each dispatch
    target the corpus ran with is disabled through ``NPY_DISABLE_CPU_FEATURES``."""
    recorded = json.loads(regen.ENVIRONMENT.read_text())
    now = regen.environment()
    if any(recorded.get(key) != now[key] for key in ("numpy", "cpus_up_to_2")):
        pytest.skip("the corpus was made under another numpy version or CPU count")
    if not now["cpu_dispatch"]:
        pytest.skip("numpy dispatches to no target beyond its baseline on this CPU")
    source = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(now["cpu_dispatch"]),
               PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _BASELINE_RUN, str(GOLDEN / "regen.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report == {"cpu_dispatch": [], "differs": []}
