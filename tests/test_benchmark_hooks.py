"""The benchmark's traced run can still find every name it wraps."""

import math
from pathlib import Path

import pytest

import threesphere
from threesphere import algebra, cli, correlations, protocol, suites, topology
from threesphere.tables import read_table

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TSIRELSON = 2.0 * math.sqrt(2.0)


class PassThrough:
    """Tracer stub: every wrapper is the wrapped function itself."""

    def span(self, name, func, attrs=None):
        return func

    def aggregate(self, name, func):
        return func


def test_every_wrap_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import instrument

    assert instrument.patches(PassThrough(), cli, correlations, suites)


def test_every_public_name_resolves():
    for name in threesphere.__all__:
        assert hasattr(threesphere, name), name


def test_package_names_come_from_disjoint_layer_lists():
    layers = [algebra, topology, protocol, correlations]
    names = [name for layer in layers for name in layer.__all__]
    assert len(names) == len(set(names)), "a name is declared by two layers"
    assert threesphere.__all__ == ["__version__", *names]
    assert len(threesphere.__all__) == len(set(threesphere.__all__))
    for layer in layers:
        for name in layer.__all__:
            assert getattr(threesphere, name) is getattr(layer, name), name


@pytest.mark.parametrize("source", [("--analytic",), ("--n", "1000")])
def test_traced_grid_search_runs_with_real_wrappers(monkeypatch, tmp_path, source):
    """The tracer's wrappers, around ``cli.quantum_reference`` too, pass radian arrays through."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import instrument
    import spans

    out = tmp_path / "chsh.csv"
    tracer = spans.Tracer()
    with spans.patched(instrument.patches(tracer, cli, correlations, suites)):
        with tracer.job(0):
            code = cli.main(["chsh", "--maximize", "--step-deg", "22.5", *source, "--out", str(out)])
    assert code == 0
    (row,) = read_table(out)
    assert abs(row["chsh_value"] - TSIRELSON) <= 1e-12
    (job_spans, aggregates), = tracer.by_job().values()
    metrics = instrument.job_metrics(job_spans, aggregates)
    assert metrics["correlations.chsh_grid_points"] == 8
    analytic_calls = 1 if source == ("--analytic",) else 0  # one array call fills the grid
    assert metrics["correlations.chsh_correlation_calls"] == analytic_calls
