"""A standing property test of the command-line boundary.

Derandomized hypothesis draws argv for ``simulate``, ``scan``, ``chsh`` and
``verify``, 19 options in 20 from their valid ranges and the rest from
edge values (``nan``, ``inf``, ``-1e3``, 0 and values past a bound).  Sizes
stay small: ``--n`` at most 10**5, ``--threads`` at most 8, ``--samples`` at
most 2,000, ``--step-deg`` at least 1 and scans of at most 361 rows.  Every
line must exit 0, 1 or 2 with no traceback, leave no thread running, and
leave only data files that read back, each with a manifest that parses.
"""

import collections
import contextlib
import io
import json
import math
import tempfile
import threading
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from threesphere.cli import MAX_SAMPLES, MAX_SEED, MAX_TRIALS, main
from threesphere.tables import manifest_path, read_table

OUT = "<out>"  # replaced by a path in the example's own directory

# Edge values of every float option: refused, or valid only at the edge of a range.
EDGES = st.sampled_from([math.nan, math.inf, -math.inf, -1e3, 0.0])


def _mostly(valid, edges):
    """``valid`` 19 draws in 20, else ``edges``."""
    return st.integers(0, 19).flatmap(lambda k: valid if k else edges)


def _text(strategy):
    return strategy.map(lambda value: repr(value) if isinstance(value, float) else str(value))


def _int_option(low, high, *edges):
    return _text(_mostly(st.integers(low, high), st.sampled_from(edges)))


N = _int_option(1, 10**5, 0, -1, MAX_TRIALS + 1, "nan", "1e3")
THREADS = _int_option(1, 8, 0, -1, "nan", "2.5")
SEED = _int_option(0, MAX_SEED, -1, MAX_SEED + 1, "nan")
SAMPLES = _int_option(1, 2000, 0, -1, MAX_SAMPLES + 1, "nan")
DEGREES = _mostly(st.floats(-720.0, 720.0), EDGES)


@st.composite
def _option(draw, name, values, present=0.95):
    """``[name, value]``, or ``[]`` when the draw leaves the option out."""
    return [name, draw(values)] if draw(st.floats(0.0, 1.0)) < present else []


@st.composite
def _outputs(draw, present=0.95):
    formats = _mostly(st.sampled_from(["csv", "json"]), st.just("xml"))
    return draw(_option("--out", st.just(OUT), present)) + draw(_option("--format", formats, 0.5))


@st.composite
def _trials(draw):
    return (
        draw(_option("--n", N)) + draw(_option("--threads", THREADS, 0.5))
        + draw(_option("--seed", SEED)) + draw(_outputs())
    )


@st.composite
def _simulate(draw):
    angles = draw(_option("--alpha-deg", _text(DEGREES))) + draw(_option("--beta-deg", _text(DEGREES)))
    return ["simulate", *angles, *draw(_trials())]


@st.composite
def _scan(draw):
    start = draw(_mostly(st.floats(-180.0, 180.0), EDGES))
    stop = start + draw(_mostly(st.floats(0.0, 360.0), EDGES))
    step = draw(_mostly(st.floats(1.0, 45.0), EDGES))
    return [
        "scan", *draw(_option("--alpha-deg", _text(DEGREES))),
        "--beta-start", repr(start), "--beta-stop", repr(stop), "--beta-step", repr(step),
        *draw(_trials()),
    ]


@st.composite
def _chsh(draw):
    argv = ["chsh"]
    if draw(_mostly(st.just(True), st.just(False))):
        argv += ["--analytic"]
    shape = draw(_mostly(st.sampled_from(["angles", "maximize"]), st.sampled_from(["both", "neither"])))
    if shape in ("angles", "both"):
        argv += ["--angles-deg", *(draw(_text(DEGREES)) for _ in range(4))]
    if shape in ("maximize", "both"):
        steps = _mostly(st.floats(1.0, 45.0), EDGES | st.just(1e-9))
        argv += ["--maximize", *draw(_option("--step-deg", _text(steps)))]
    return argv + draw(_option("--seed", SEED, 0.5)) + draw(_outputs(0.5))


@st.composite
def _verify(draw):
    suites = _mostly(st.sampled_from(["algebra", "topology", "protocol", "all"]), st.just("none"))
    return [
        "verify", draw(suites),
        *draw(_option("--samples", SAMPLES)), *draw(_option("--seed", SEED, 0.5)),
    ]


ARGV = st.one_of(_simulate(), _scan(), _chsh(), _verify())


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_generated_command_lines_exit_cleanly_and_leave_readable_files():
    threads = threading.active_count()
    codes = collections.Counter()

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(ARGV)
    def check(argv):
        with tempfile.TemporaryDirectory() as directory:
            out = Path(directory) / "data"
            code, err = _run([str(out) if token == OUT else token for token in argv])
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err, (argv, err)
            assert threading.active_count() == threads, argv
            data = [path for path in Path(directory).iterdir() if path != manifest_path(out)]
            assert data in ([], [out]), argv
            if data:
                assert read_table(out), argv
                assert isinstance(json.loads(manifest_path(out).read_text()), dict), argv
        codes[code] += 1

    check()
    # Weighted towards valid lines: most examples run a command to the end.
    assert codes[0] > sum(codes.values()) / 2, codes
